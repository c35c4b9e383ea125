//! Seeded-sweep tests for the prediction structures: automata, DOLC index
//! construction, path registers and target buffers.

use multiscalar_core::automata::{Automaton, LastExit, LastExitHysteresis, VotingCounters};
use multiscalar_core::dolc::{Dolc, DolcPath, PathRegister, MAX_INDEX_BITS, MAX_PATH_KEY_DEPTH};
use multiscalar_core::rng::XorShift64;
use multiscalar_core::target::ReturnAddressStack;
use multiscalar_isa::{Addr, ExitIndex, MAX_EXITS};

fn random_exit(rng: &mut XorShift64) -> ExitIndex {
    ExitIndex::new(rng.next_below(MAX_EXITS as u32) as u8).expect("in range")
}

/// Runs a sequence of updates and checks the basic automaton contract.
fn check_automaton<A: Automaton>(updates: &[ExitIndex]) {
    let mut a = A::default();
    let mut tie = XorShift64::new(1);
    for &u in updates {
        let p = a.predict(&mut tie);
        assert!(p.index() < MAX_EXITS);
        a.update(u);
    }
    // Convergence: after enough repeats of one exit, it is predicted.
    if let Some(&last) = updates.last() {
        for _ in 0..16 {
            a.update(last);
        }
        assert_eq!(a.predict(&mut tie), last, "{} must converge", A::NAME);
    }
}

#[test]
fn automata_never_predict_out_of_range_and_converge() {
    let mut rng = XorShift64::new(0xA07A);
    for _ in 0..256 {
        let len = 1 + rng.next_below(59) as usize;
        let updates: Vec<ExitIndex> = (0..len).map(|_| random_exit(&mut rng)).collect();
        check_automaton::<VotingCounters<2, true>>(&updates);
        check_automaton::<VotingCounters<2, false>>(&updates);
        check_automaton::<VotingCounters<3, true>>(&updates);
        check_automaton::<VotingCounters<3, false>>(&updates);
        check_automaton::<LastExit>(&updates);
        check_automaton::<LastExitHysteresis<1>>(&updates);
        check_automaton::<LastExitHysteresis<2>>(&updates);
    }
}

#[test]
fn leh_needs_at_least_confidence_plus_one_misses_to_flip() {
    // Saturate confidence on exit 0, then count misses until the prediction
    // flips: must be exactly MAX+1 when saturated.
    for build in 2u8..10 {
        for wrong_idx in 1..MAX_EXITS as u8 {
            let wrong = ExitIndex::new(wrong_idx).unwrap();
            let mut a: LastExitHysteresis<2> = Default::default();
            let mut tie = XorShift64::new(2);
            let e0 = ExitIndex::new(0).unwrap();
            for _ in 0..build {
                a.update(e0);
            }
            let mut flips = 0;
            while a.predict(&mut tie) == e0 {
                a.update(wrong);
                flips += 1;
                assert!(flips <= 4, "2-bit hysteresis flips within 4 misses");
            }
            let expected = u32::from(build).min(3) + 1;
            assert_eq!(flips, expected);
        }
    }
}

#[test]
fn dolc_index_always_in_table() {
    let mut rng = XorShift64::new(0xD01C);
    let mut cases = 0;
    while cases < 256 {
        let depth = rng.next_below(8) as u8;
        let older = rng.next_below(10) as u8;
        let last = 1 + rng.next_below(11) as u8;
        let current = 1 + rng.next_below(11) as u8;
        let folds = 1 + rng.next_below(3) as u8;
        // Only realizable configurations: the folded index must fit a table
        // (Dolc::new rejects absurd ones by design).
        let intermediate = if depth == 0 {
            current as u32
        } else {
            (depth as u32 - 1) * older as u32 + last as u32 + current as u32
        };
        if intermediate.div_ceil(folds as u32) > 28 {
            continue;
        }
        cases += 1;
        let d = Dolc::new(depth, older, last, current, folds);
        let mut path = PathRegister::new(d.depth());
        let len = 1 + rng.next_below(39) as usize;
        for _ in 0..len {
            let a = rng.next_below(1_000_000);
            let idx = d.index(&path, Addr(a));
            assert!(idx < d.table_entries());
            path.push(Addr(a));
        }
    }
}

#[test]
fn dolc_path_matches_index_over_a_path_register() {
    // The shift-register path must reproduce `Dolc::index` over the exact
    // path at every step, warm-up included, for any realizable
    // configuration: depth 0 and 1, O = 0, streams shorter than the depth,
    // and intermediates up to the full 128 bits.
    let mut rng = XorShift64::new(0xD01C_9A7B);
    let pinned = [
        Dolc::new(0, 0, 0, 14, 1),
        Dolc::new(0, 9, 9, 9, 1),
        Dolc::new(1, 0, 7, 7, 1),
        Dolc::new(1, 32, 32, 32, 3),
        Dolc::new(4, 0, 6, 6, 1),
        Dolc::new(6, 5, 8, 9, 3),
        Dolc::new(5, 32, 0, 0, 5),
        Dolc::new(3, 32, 32, 32, 5),
        Dolc::new(97, 1, 0, 0, 4),
    ];
    let (mut depth01, mut no_older, mut short, mut wide) = (0, 0, 0, 0);
    let mut cases = 0;
    while cases < 2000 {
        let d = match pinned.get(cases) {
            Some(&d) => d,
            None => {
                let depth = match rng.next_below(4) {
                    0 => rng.next_below(2),
                    _ => rng.next_below(12),
                } as u8;
                let older = match rng.next_below(4) {
                    0 => 0,
                    _ => rng.next_below(33),
                } as u8;
                let last = rng.next_below(33) as u8;
                let current = rng.next_below(33) as u8;
                let inter = if depth == 0 {
                    current as u32
                } else {
                    (depth as u32 - 1) * older as u32 + last as u32 + current as u32
                };
                let folds = inter.div_ceil(MAX_INDEX_BITS).max(1) + rng.next_below(3);
                match Dolc::try_new(depth, older, last, current, folds as u8) {
                    Ok(d) => d,
                    Err(_) => continue,
                }
            }
        };
        cases += 1;
        let len = rng.next_below(3 * d.depth() as u32 + 4) as usize;
        depth01 += usize::from(d.depth() <= 1);
        no_older += usize::from(d.depth() > 1 && d.older_bits() == 0);
        short += usize::from(len < d.depth());
        wide += usize::from(d.intermediate_bits() > 96);
        let mut fast = DolcPath::new(d);
        let mut exact = PathRegister::new(d.depth());
        for step in 0..=len {
            let cur = Addr(rng.next_u64() as u32);
            let want = d.index(&exact, cur);
            assert!(want < d.table_entries(), "{d} step {step}");
            assert_eq!(fast.index(cur), want, "{d} step {step}");
            fast.push(cur);
            exact.push(cur);
        }
    }
    assert!(depth01 > 100 && no_older > 50 && short > 100 && wide > 50);
}

#[test]
fn dolc_index_is_deterministic() {
    let d = Dolc::new(5, 4, 6, 6, 2);
    let run = |addrs: &[u32]| -> Vec<usize> {
        let mut path = PathRegister::new(d.depth());
        addrs
            .iter()
            .map(|&a| {
                let i = d.index(&path, Addr(a));
                path.push(Addr(a));
                i
            })
            .collect()
    };
    let mut rng = XorShift64::new(0xDE7E);
    for _ in 0..128 {
        let len = 1 + rng.next_below(29) as usize;
        let addrs: Vec<u32> = (0..len).map(|_| rng.next_below(100_000)).collect();
        assert_eq!(run(&addrs), run(&addrs));
    }
}

#[test]
fn path_register_matches_reference_model() {
    let mut rng = XorShift64::new(0xBA7);
    for _ in 0..256 {
        let depth = rng.next_below(10) as usize;
        let len = rng.next_below(50) as usize;
        let mut reg = PathRegister::new(depth);
        let mut model: Vec<u32> = Vec::new();
        for _ in 0..len {
            let a = rng.next_below(5000);
            reg.push(Addr(a));
            if depth > 0 {
                model.push(a);
                if model.len() > depth {
                    model.remove(0);
                }
            }
        }
        for (i, &m) in model.iter().rev().enumerate() {
            assert_eq!(reg.recent(i), Some(Addr(m)));
        }
        assert_eq!(reg.recent(model.len()), None, "holds only the model");
        // A register that never overflowed, fed just the model, holds the
        // same path.
        if depth <= MAX_PATH_KEY_DEPTH {
            let mut fresh = PathRegister::new(depth);
            for &m in &model {
                fresh.push(Addr(m));
            }
            assert_eq!(reg.key(), fresh.key());
        }
    }
}

#[test]
fn ras_is_a_bounded_stack() {
    // Push with probability ~1/2, pop otherwise. Model with a Vec truncated
    // from the front on overflow.
    let mut rng = XorShift64::new(0x3A5);
    for _ in 0..256 {
        let cap = 1 + rng.next_below(15) as usize;
        let ops = rng.next_below(80) as usize;
        let mut ras = ReturnAddressStack::new(cap);
        let mut model: Vec<u32> = Vec::new();
        for _ in 0..ops {
            if rng.next_u64() & 1 == 0 {
                let a = rng.next_below(10_000);
                ras.push(Addr(a));
                model.push(a);
                if model.len() > cap {
                    model.remove(0);
                }
            } else {
                let got = ras.pop();
                let want = model.pop();
                assert_eq!(got, want.map(Addr));
            }
            assert_eq!(ras.len(), model.len());
            assert_eq!(ras.peek(), model.last().copied().map(Addr));
        }
    }
}

#[test]
fn dolc_fold_is_linear_in_xor() {
    // fold(a ^ b) == fold(a) ^ fold(b): folding is XOR of fields.
    let d = Dolc::new(6, 5, 8, 9, 3);
    let mut rng = XorShift64::new(0xF01D);
    for _ in 0..4096 {
        let a = rng.next_u64();
        let b = rng.next_u64();
        let fa = d.fold(a as u128);
        let fb = d.fold(b as u128);
        let fab = d.fold((a ^ b) as u128);
        assert_eq!(fab, fa ^ fb);
    }
}
