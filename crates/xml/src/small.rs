//! The crate's one small array: kept inline until it outgrows `N` items,
//! then on the heap. A node's child list (`N` = 3, so a [`crate::tree::Node`]
//! stays 64 bytes) and the explicit stacks of the iterative walks (16 or
//! 32 frames) are both this type.

use std::fmt;

/// Up to `N` items inline, every item on the heap once there are more.
#[derive(Clone)]
pub(crate) enum Small<T, const N: usize> {
    /// The first `len` of `items` are the array; the rest are filler.
    Inline { len: u8, items: [T; N] },
    /// Everything, once the array outgrew `N` (it never moves back).
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> Small<T, N> {
    /// An empty array; `fill` only initialises the inline slots.
    pub(crate) fn new(fill: T) -> Self {
        const { assert!(N <= u8::MAX as usize, "the inline length is a u8") };
        Small::Inline {
            len: 0,
            items: [fill; N],
        }
    }

    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            Small::Inline { len, items } => &items[..*len as usize],
            Small::Heap(heap) => heap,
        }
    }

    pub(crate) fn items(&mut self) -> &mut [T] {
        match self {
            Small::Inline { len, items } => &mut items[..*len as usize],
            Small::Heap(heap) => heap,
        }
    }

    pub(crate) fn push(&mut self, x: T) {
        match self {
            Small::Inline { len, items } if (*len as usize) < N => {
                items[*len as usize] = x;
                *len += 1;
            }
            Small::Inline { items, .. } => {
                let mut heap = Vec::with_capacity(2 * N);
                heap.extend_from_slice(items);
                heap.push(x);
                *self = Small::Heap(heap);
            }
            Small::Heap(heap) => heap.push(x),
        }
    }

    pub(crate) fn truncate(&mut self, n: usize) {
        match self {
            Small::Inline { len, .. } if n < *len as usize => *len = n as u8,
            Small::Inline { .. } => {}
            Small::Heap(heap) => heap.truncate(n),
        }
    }

    /// Drop the last item.
    pub(crate) fn pop(&mut self) {
        let depth = self.as_slice().len() - 1;
        self.truncate(depth);
    }

    /// Keep only the items `keep` accepts, in order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match self {
            Small::Inline { len, items } => {
                let mut kept = 0;
                for i in 0..*len as usize {
                    if keep(&items[i]) {
                        items[kept] = items[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Small::Heap(heap) => heap.retain(keep),
        }
    }
}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for Small<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}
