//! Word bitsets: sets of small dense indices as `u64` slices.
//!
//! The dataflow tables of the mid-end ([`liveness`](crate::liveness)), the
//! backend's scheduler and allocator and the ISE search's ancestor table
//! all hold one set per block or instruction, laid out as rows of
//! [`words`]`(n)` words in one flat `Vec<u64>`. These helpers are the one
//! set of operations they share.

/// Words needed for a set over indices `0..n`.
#[inline]
pub fn words(n: usize) -> usize {
    n.div_ceil(64)
}

/// Whether index `i` is in `set`.
#[inline]
pub fn has_bit(set: &[u64], i: usize) -> bool {
    set[i / 64] >> (i % 64) & 1 != 0
}

/// Add index `i` to `set`.
#[inline]
pub fn set_bit(set: &mut [u64], i: usize) {
    set[i / 64] |= 1 << (i % 64);
}

/// Remove index `i` from `set`.
#[inline]
pub fn clear_bit(set: &mut [u64], i: usize) {
    set[i / 64] &= !(1 << (i % 64));
}

/// `dst |= src`, word by word.
#[inline]
pub fn union_into(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Call `f` with the index of every set bit, in increasing order.
pub fn for_each_bit(set: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in set.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_and_visit_in_order() {
        let mut s = vec![0u64; words(130)];
        assert_eq!(s.len(), 3);
        for i in [129, 0, 64, 63] {
            set_bit(&mut s, i);
        }
        clear_bit(&mut s, 63);
        assert!(has_bit(&s, 64) && !has_bit(&s, 63));
        let mut seen = Vec::new();
        for_each_bit(&s, |i| seen.push(i));
        assert_eq!(seen, vec![0, 64, 129]);

        let mut u = vec![0u64; 3];
        set_bit(&mut u, 5);
        union_into(&mut u, &s);
        seen.clear();
        for_each_bit(&u, |i| seen.push(i));
        assert_eq!(seen, vec![0, 5, 64, 129]);
    }
}
