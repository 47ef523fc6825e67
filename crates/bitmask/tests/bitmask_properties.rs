//! Property tests for the bitmask substrate: rank/select duality, boolean
//! algebra, and representation round-trips.

use spangle_bitmask::{
    choose_validity_repr, harley_seal, Bitmask, DeltaCursor, HierarchicalBitmask, Milestones,
    OffsetArray, ValidityRepr,
};
use spangle_testkit::run_cases;

const CASES: u64 = 64;

#[test]
fn select_is_the_inverse_of_rank() {
    run_cases(0xB177_0001, CASES, |rng| {
        let bits = rng.vec_of(1..4000, |r| r.bool());
        let mask = Bitmask::from_fn(bits.len(), |i| bits[i]);
        for (k, pos) in mask.iter_ones().enumerate() {
            assert_eq!(mask.select(k), Some(pos));
            assert_eq!(mask.rank_naive(pos), k);
            assert!(mask.get(pos));
        }
        assert_eq!(mask.select(mask.count_ones()), None);
    });
}

#[test]
fn boolean_algebra_holds() {
    run_cases(0xB177_0002, CASES, |rng| {
        let a_bits = rng.vec_of(1..1000, |r| r.bool());
        let b_seed = rng.next_u64();
        let n = a_bits.len();
        let a = Bitmask::from_fn(n, |i| a_bits[i]);
        let b = Bitmask::from_fn(n, |i| (i as u64).wrapping_mul(b_seed | 1).is_multiple_of(3));
        // De Morgan-ish identities expressible without complement:
        // |A∧B| + |A∨B| == |A| + |B|.
        assert_eq!(
            a.and(&b).count_ones() + a.or(&b).count_ones(),
            a.count_ones() + b.count_ones()
        );
        // AND/OR are commutative and idempotent.
        assert_eq!(a.and(&b), b.and(&a));
        assert_eq!(a.or(&b), b.or(&a));
        assert_eq!(a.and(&a), a.clone());
        assert_eq!(a.or(&a), a.clone());
        // ANDNOT partitions A.
        let mut only_a = a.clone();
        only_a.and_not_assign(&b);
        assert_eq!(only_a.count_ones() + a.and(&b).count_ones(), a.count_ones());
    });
}

#[test]
fn all_rank_structures_agree() {
    run_cases(0xB177_0003, CASES, |rng| {
        let bits = rng.vec_of(1..6000, |r| r.bool());
        let mask = Bitmask::from_fn(bits.len(), |i| bits[i]);
        let milestones = Milestones::build(&mask);
        let hier = HierarchicalBitmask::compress(&mask);
        let offsets = OffsetArray::from_mask(&mask);
        let mut cursor = DeltaCursor::new(&mask);
        for pos in (0..=bits.len()).step_by(37) {
            let expected = mask.rank_naive(pos);
            assert_eq!(milestones.rank(&mask, pos), expected);
            assert_eq!(hier.rank(pos), expected);
            assert_eq!(offsets.rank(pos), expected);
            assert_eq!(cursor.rank(pos), expected);
        }
        assert_eq!(milestones.total(), mask.count_ones());
        assert_eq!(harley_seal(mask.words()), mask.count_ones());
    });
}

#[test]
fn hierarchical_and_offset_roundtrips() {
    run_cases(0xB177_0004, CASES, |rng| {
        let bits = rng.vec_of(1..3000, |r| r.bool());
        let mask = Bitmask::from_fn(bits.len(), |i| bits[i]);
        assert_eq!(HierarchicalBitmask::compress(&mask).decompress(), mask);
        assert_eq!(OffsetArray::from_mask(&mask).to_mask(), mask);
    });
}

#[test]
fn set_range_equals_per_bit_sets() {
    run_cases(0xB177_0005, CASES, |rng| {
        let len = rng.usize_in(1..2000);
        let a = rng.usize_in(0..2000);
        let b = rng.usize_in(0..2000);
        let (start, end) = (a.min(b).min(len), a.max(b).min(len));
        let mut fast = Bitmask::zeros(len);
        fast.set_range(start, end);
        let slow = Bitmask::from_fn(len, |i| i >= start && i < end);
        assert_eq!(fast, slow);
    });
}

#[test]
fn repr_choice_is_consistent_with_actual_sizes() {
    run_cases(0xB177_0006, CASES, |rng| {
        let volume = rng.usize_in(64..100_000);
        let valid_frac = rng.f64_unit();
        let valid = ((volume as f64) * valid_frac) as usize;
        let repr = choose_validity_repr(volume, valid);
        let mask_bytes = volume.div_ceil(8);
        let offset_bytes = valid * 4;
        match repr {
            ValidityRepr::Offsets => assert!(offset_bytes < mask_bytes),
            ValidityRepr::Bitmask => assert!(offset_bytes >= mask_bytes),
        }
    });
}

#[test]
fn hierarchical_from_sorted_ones_equals_compressing_the_flat_mask() {
    let mut case = 0usize;
    run_cases(0xB177_00F5, CASES, |rng| {
        // Every fourth case is empty and every fourth full; lengths are
        // mostly not multiples of 64, and every eighth is one exactly.
        case += 1;
        let len = match case % 8 {
            0 => 64 * rng.usize_in(0..40),
            _ => rng.usize_in(0..3000),
        };
        let density = match case % 4 {
            0 => 0.0,
            1 => 1.0,
            _ => rng.f64_unit() * 0.2,
        };
        let ones: Vec<usize> = (0..len).filter(|_| rng.f64_unit() < density).collect();
        let flat = Bitmask::from_ones(len, ones.iter().copied());
        assert_eq!(
            HierarchicalBitmask::from_sorted_ones(len, ones.iter().copied()),
            HierarchicalBitmask::compress(&flat),
            "len={len} ones={}",
            ones.len()
        );
    });
}
