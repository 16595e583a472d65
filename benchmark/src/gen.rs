//! Seeded input generators. Everything the system under test sees is
//! made here from the `--seed` argument: the same seed gives the same
//! documents and the same op order, another seed gives other streams
//! of the same shape.
//!
//! `axml-bench` has a catalog generator and a Zipf sampler too; they are
//! not reused on purpose. Those belong to the code under measurement: a
//! later change to them would silently change this benchmark's inputs.

use axml_prng::SplitMix64;
use std::fmt::Write as _;

/// Packages with `size` above this are what the selections select.
pub const BIG_THRESHOLD: u32 = 100_000;

/// A generated `<catalog>` document.
pub struct Catalog {
    /// The document as XML *text* (documents are installed from text so
    /// set-up pays the parser).
    pub xml: String,
    /// Package names, in document order.
    pub names: Vec<String>,
}

/// A catalog of `n` packages in which exactly `round(n · selectivity)`
/// exceed [`BIG_THRESHOLD`]. Which ones, every size and every name come
/// from `rng`. Sizes are fixed-width and names differ in length by a
/// few characters, so byte counts differ between seeds by a fraction of
/// a percent: enough that no two seeds give identical traffic, little
/// enough that `wire_bytes_per_op` compares across seeds.
pub fn catalog(n: usize, selectivity: f64, rng: &mut SplitMix64) -> Catalog {
    let big = (n as f64 * selectivity).round() as usize;
    let mut is_big = vec![false; n];
    for slot in is_big.iter_mut().take(big) {
        *slot = true;
    }
    rng.shuffle(&mut is_big);
    let mut xml = String::with_capacity(n * 120 + 32);
    let mut names = Vec::with_capacity(n);
    xml.push_str("<catalog>");
    for (i, &selected) in is_big.iter().enumerate() {
        let size = if selected {
            BIG_THRESHOLD + 1 + rng.gen_range(0..10_000u32)
        } else {
            10_000 + rng.gen_range(0..40_000u32)
        };
        let tag = format!("{:08x}", rng.next_u32());
        let name = format!("pkg-{i:05}-{}", &tag[..rng.gen_range(1..=8usize)]);
        let _ = write!(
            xml,
            r#"<pkg name="{name}"><size>{size}</size><desc>package number {i:05}, a member of the synthetic catalog</desc></pkg>"#
        );
        names.push(name);
    }
    xml.push_str("</catalog>");
    Catalog { xml, names }
}

/// A flat document of `<row>` elements, `bytes` bytes give or take 3 %
/// (drawn from `rng`, for the reason given at [`catalog`]).
pub fn rows_xml(root: &str, bytes: usize, rng: &mut SplitMix64) -> String {
    let bytes = bytes - bytes / 32 + rng.gen_range(0..=bytes / 16);
    let mut xml = format!("<{root}>");
    let mut i = 0;
    while xml.len() + root.len() + 3 < bytes {
        let _ = write!(xml, r#"<row id="r{i:04}">{:016x}</row>"#, rng.next_u64());
        i += 1;
    }
    let _ = write!(xml, "</{root}>");
    xml
}

/// A seeded Zipf sampler over ranks `0..n` (rank 0 most popular):
/// cumulative generalized-harmonic table, inverse-CDF binary search.
#[derive(Debug, Clone)]
pub struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    /// A Zipf law over `n ≥ 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let cum = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        Zipf { cum }
    }

    /// Draw one rank in `0..n`.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let total = *self.cum.last().expect("non-empty table");
        let u = rng.next_f64() * total;
        self.cum.partition_point(|&c| c < u).min(self.cum.len() - 1)
    }
}

/// An op order with *exact* proportions: `counts[k]` copies of kind `k`,
/// shuffled by `rng`. Fixing the mix and drawing only the order keeps
/// per-op averages comparable between seeds.
pub fn stratified_order(counts: &[usize], rng: &mut SplitMix64) -> Vec<u8> {
    let mut order: Vec<u8> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat_n(k as u8, c))
        .collect();
    rng.shuffle(&mut order);
    order
}

/// Split `total` ops over kinds in proportion to `weights` (largest
/// remainder), every kind getting at least one op.
pub fn apportion(total: usize, weights: &[u32]) -> Vec<usize> {
    let sum: u32 = weights.iter().sum();
    let total = total.max(weights.len());
    let mut counts: Vec<usize> = weights
        .iter()
        .map(|&w| ((total as u64 * w as u64 / sum as u64) as usize).max(1))
        .collect();
    // Hand the rounding remainder to (or take the excess from) the
    // heaviest kind.
    let heaviest = (0..weights.len())
        .max_by_key(|&k| weights[k])
        .expect("at least one kind");
    let assigned: usize = counts.iter().sum();
    if assigned <= total {
        counts[heaviest] += total - assigned;
    } else {
        counts[heaviest] -= (assigned - total).min(counts[heaviest] - 1);
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_seeded_and_exactly_selective() {
        let a = catalog(200, 0.1, &mut SplitMix64::new(7)).xml;
        let b = catalog(200, 0.1, &mut SplitMix64::new(7)).xml;
        let c = catalog(200, 0.1, &mut SplitMix64::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c.xml);
        let drift = a.len().abs_diff(c.xml.len()) as f64 / a.len() as f64;
        assert!(
            drift < 0.01,
            "byte length may differ between seeds only slightly: {drift}"
        );
        assert_eq!(c.names.len(), 200);
        assert!(c
            .names
            .iter()
            .all(|n| c.xml.contains(&format!(r#"name="{n}""#))));
        let t = axml_xml::tree::Tree::parse(&a).unwrap();
        let big = t
            .descendants_labeled(t.root(), "size")
            .filter(|&s| t.text(s).parse::<u32>().unwrap() > BIG_THRESHOLD)
            .count();
        assert_eq!(big, 20);
    }

    #[test]
    fn rows_hit_the_requested_size() {
        let xml = rows_xml("small", 4096, &mut SplitMix64::new(1));
        assert!((3900..=4300).contains(&xml.len()), "{}", xml.len());
        axml_xml::tree::Tree::parse(&xml).unwrap();
    }

    #[test]
    fn zipf_is_deterministic_and_head_heavy() {
        let z = Zipf::new(100, 1.1);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..2000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let sample = draw(7);
        let head = sample.iter().filter(|&&r| r < 10).count();
        let tail = sample.iter().filter(|&&r| r >= 90).count();
        assert!(head > 10 * tail.max(1), "{head} vs {tail}");
    }

    #[test]
    fn stratified_order_keeps_the_mix_exact() {
        let counts = apportion(1000, &[50, 15, 20, 15]);
        assert_eq!(counts, vec![500, 150, 200, 150]);
        let a = stratified_order(&counts, &mut SplitMix64::new(3));
        let b = stratified_order(&counts, &mut SplitMix64::new(4));
        assert_ne!(a, b, "the seed draws the order");
        for (k, &c) in counts.iter().enumerate() {
            assert_eq!(a.iter().filter(|&&x| x as usize == k).count(), c);
            assert_eq!(b.iter().filter(|&&x| x as usize == k).count(), c);
        }
    }

    #[test]
    fn apportion_never_starves_a_kind() {
        let counts = apportion(5, &[90, 5, 5]);
        assert_eq!(counts.iter().sum::<usize>(), 5);
        assert!(counts.iter().all(|&c| c >= 1));
        assert_eq!(apportion(2, &[1, 1, 1]).iter().sum::<usize>(), 3);
    }
}
