//! Property tests for the availability profile: the optimized sweep in
//! `Profile::earliest_start` is checked against a brute-force oracle that
//! tries every candidate instant.
//!
//! Randomization runs on the crate's own deterministic generators
//! (`jobsched_workload::rng`) instead of `proptest`, which the offline
//! build cannot fetch — these properties run in every plain
//! `cargo test`.

use jobsched_sim::profile::HORIZON;
use jobsched_sim::Profile;
use jobsched_workload::rng::{derive_seed, Rng, SmallRng};
use jobsched_workload::Time;

const CASES: u64 = 256;
const TOTAL: u32 = 64;

/// Brute force: test each instant in `[from, limit]` directly via
/// `min_free` (itself trivially correct by definition).
fn brute_earliest_start(
    p: &Profile,
    nodes: u32,
    duration: Time,
    from: Time,
    limit: Time,
) -> Option<Time> {
    (from..=limit).find(|&t| p.min_free(t, t + duration.max(1)) >= nodes)
}

/// Up to 12 random (nodes, start, duration) reservation requests — the
/// shape the old proptest strategy generated.
fn arb_reservations(rng: &mut SmallRng) -> Vec<(u32, Time, Time)> {
    let len = rng.random_range(0usize..12);
    (0..len)
        .map(|_| {
            (
                rng.random_range(1u32..=16),
                rng.random_range(0u64..200),
                rng.random_range(1u64..100),
            )
        })
        .collect()
}

/// Book the requests the way real callers do: at the earliest feasible
/// start, skipping any that land beyond the test horizon.
fn booked_profile(rng: &mut SmallRng) -> Profile {
    let mut p = Profile::empty(TOTAL, 0);
    for (n, start, dur) in arb_reservations(rng) {
        let s = p.earliest_start(n, dur, start);
        if s < 1_000_000 {
            p.reserve(n, s, dur);
        }
    }
    p
}

#[test]
fn earliest_start_matches_brute_force() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(derive_seed(0xEA51, case));
        let p = booked_profile(&mut rng);
        let nodes = rng.random_range(1u32..=TOTAL);
        let duration = rng.random_range(1u64..150);
        let from = rng.random_range(0u64..250);
        let fast = p.earliest_start(nodes, duration, from);
        // All reservations end before ~1100, so search a hair past that.
        let brute = brute_earliest_start(&p, nodes, duration, from, 1_200);
        assert_eq!(Some(fast), brute, "case {case}: profile {p:?}");
    }
}

#[test]
fn reserve_never_goes_negative_when_guided() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(derive_seed(0x4E57, case));
        let mut p = Profile::empty(TOTAL, 0);
        for (n, start, dur) in arb_reservations(&mut rng) {
            let s = p.earliest_start(n, dur, start);
            p.reserve(n, s, dur); // must not panic: earliest_start vouched
            assert!(p.free_at(s) <= TOTAL, "case {case}");
        }
    }
}

#[test]
fn free_at_is_step_constant_between_breakpoints() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(derive_seed(0x57E9, case));
        let p = booked_profile(&mut rng);
        let t = rng.random_range(0u64..400);
        // min_free over a unit window equals free_at.
        assert_eq!(p.min_free(t, t + 1), p.free_at(t), "case {case}");
    }
}

#[test]
fn max_free_before_bounds_free_at() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(derive_seed(0x3A8F, case));
        let p = booked_profile(&mut rng);
        let horizon = rng.random_range(1u64..400);
        let t = rng.random_range(0u64..400);
        if t < horizon {
            assert!(p.max_free_before(horizon) >= p.free_at(t), "case {case}");
        }
    }
}

/// One random booking request against a profile whose breakpoints so far
/// are `marks`: `from` is the profile start, a random later instant, or
/// an existing breakpoint, and a quarter of the durations are chosen so
/// the window ends exactly on an existing breakpoint.
fn arb_request(rng: &mut SmallRng, start: Time, marks: &[Time]) -> (u32, Time, Time) {
    let nodes = rng.random_range(1u32..=TOTAL);
    let from = match rng.random_range(0u32..3) {
        0 => start,
        1 => start + rng.random_range(1u64..300),
        _ => marks[rng.random_range(0..marks.len())],
    };
    let later: Vec<Time> = marks.iter().copied().filter(|&t| t > from).collect();
    let duration = if !later.is_empty() && rng.random_range(0u32..4) == 0 {
        later[rng.random_range(0..later.len())] - from
    } else {
        rng.random_range(1u64..150)
    };
    (nodes, duration, from)
}

#[test]
fn book_matches_earliest_start_then_reserve() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(derive_seed(0xB00C, case));
        let start = rng.random_range(0u64..50);
        let mut fused = Profile::empty(TOTAL, start);
        let mut split = fused.clone();
        let mut marks = vec![start];
        for step in 0..rng.random_range(1usize..24) {
            let (nodes, duration, from) = arb_request(&mut rng, start, &marks);
            // Half the requests carry a truncation horizon that may fall
            // before, on or after the fit.
            let limit = if rng.random_range(0u32..2) == 0 {
                from + rng.random_range(0u64..400)
            } else {
                HORIZON
            };
            let expect = split.earliest_start(nodes, duration, from);
            if expect < limit {
                split.reserve(nodes, expect, duration);
            }
            let got = fused.book(nodes, duration, from, limit);
            assert_eq!(got, expect, "case {case} step {step}: start");
            assert_eq!(fused, split, "case {case} step {step}: steps");
            if got < limit {
                marks.extend([got, got + duration]);
            }
        }
    }
}

#[test]
fn book_matches_earliest_start_then_reserve_near_horizon() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(derive_seed(0x4012, case));
        let mut fused = Profile::empty(TOTAL, 0);
        let mut split = fused.clone();
        for step in 0..rng.random_range(1usize..12) {
            let nodes = rng.random_range(1u32..=TOTAL);
            // Windows that end just short of, exactly on, or past the
            // sentinel, and requests as long as the sentinel itself.
            let (from, duration) = match rng.random_range(0u32..4) {
                0 => (
                    HORIZON - rng.random_range(1u64..100),
                    rng.random_range(1u64..200),
                ),
                1 => {
                    let back = rng.random_range(1u64..100);
                    (HORIZON - back, back)
                }
                2 => (rng.random_range(0u64..100), HORIZON),
                _ => (rng.random_range(0u64..100), rng.random_range(1u64..100)),
            };
            let expect = split.earliest_start(nodes, duration, from);
            if expect < HORIZON {
                split.reserve(nodes, expect, duration);
            }
            let got = fused.book(nodes, duration, from, HORIZON);
            assert_eq!(got, expect, "case {case} step {step}: start");
            assert_eq!(fused, split, "case {case} step {step}: steps");
        }
    }
}

#[test]
fn advance_refuses_a_calendar_with_a_breakpoint_in_between() {
    let mut p = Profile::empty(10, 100);
    p.reserve(4, 150, 50); // breakpoints at 150 and 200
    let before = p.clone();

    // Nothing fell due in (100, 149]: the start moves, the steps stay.
    assert!(p.advance_to(149));
    assert_eq!(p.free_at_start(), 10);
    assert_eq!(p.free_at(150), 6);
    assert_eq!(p.earliest_start(10, 1, 149), 149);

    // 150 lies in (149, 150]: refused, untouched.
    let current = p.clone();
    assert!(!p.advance_to(150));
    assert_eq!(p, current);
    assert!(!p.advance_to(500));
    assert_eq!(p, current);

    // Never backwards, and a no-op advance is always current.
    assert!(!before.clone().advance_to(99));
    assert!(before.clone().advance_to(100));
}
