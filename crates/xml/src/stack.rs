//! The explicit stack the iterative tree walks keep their open nodes on.

/// A stack kept in an array of `N` until it outgrows it, then on the heap.
pub(crate) struct Stack<T, const N: usize> {
    inline: [T; N],
    len: usize,
    /// Everything, once spilled (and `len` is then unused).
    heap: Vec<T>,
}

impl<T: Copy, const N: usize> Stack<T, N> {
    /// An empty stack; `fill` only initialises the array.
    pub(crate) fn new(fill: T) -> Self {
        Stack {
            inline: [fill; N],
            len: 0,
            heap: Vec::new(),
        }
    }

    pub(crate) fn items(&mut self) -> &mut [T] {
        if self.heap.is_empty() {
            &mut self.inline[..self.len]
        } else {
            &mut self.heap
        }
    }

    pub(crate) fn push(&mut self, x: T) {
        if !self.heap.is_empty() {
            self.heap.push(x);
        } else if self.len < N {
            self.inline[self.len] = x;
            self.len += 1;
        } else {
            self.heap.reserve(2 * N);
            self.heap.extend_from_slice(&self.inline);
            self.heap.push(x);
            self.len = 0;
        }
    }

    pub(crate) fn truncate(&mut self, n: usize) {
        if self.heap.is_empty() {
            self.len = self.len.min(n);
        } else {
            self.heap.truncate(n);
        }
    }

    /// Drop the top item.
    pub(crate) fn pop(&mut self) {
        let depth = self.items().len() - 1;
        self.truncate(depth);
    }
}
