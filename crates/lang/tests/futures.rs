//! Futures (`future e` / `touch e`) — the paper's future-work direction,
//! implemented at the semantics level with *strict* (region-bounded)
//! futures so the unpin-at-join theory carries over unchanged.

use proptest::prelude::*;

use mpl_lang::{run_program, LangError, LangMode, Options, RunError, Schedule};

fn opts(schedule: Schedule) -> Options {
    Options {
        schedule,
        mode: LangMode::Managed,
        fuel: 1_000_000,
    }
}

fn run(src: &str, schedule: Schedule) -> mpl_lang::Outcome {
    run_program(src, opts(schedule)).expect("run")
}

const SCHEDULES: &[Schedule] = &[
    Schedule::DepthFirst,
    Schedule::RoundRobin,
    Schedule::Random(11),
];

#[test]
fn touch_delivers_the_result() {
    for &s in SCHEDULES {
        let out = run("let f = future (1 + 2) in touch f", s);
        assert_eq!(out.render(), "3");
        assert_eq!(out.costs.futures, 1);
        assert_eq!(out.costs.touches, 1);
    }
}

#[test]
fn creator_keeps_running_while_the_future_computes() {
    for &s in SCHEDULES {
        let out = run("let f = future 21 in touch f + 21", s);
        assert_eq!(out.render(), "42");
    }
}

#[test]
fn future_handles_are_first_class() {
    // The handle flows through a pair and a function before the touch.
    let src = "let f = future 7 in \
               let boxed = (f, 1) in \
               let get = fn p => touch (fst p) in \
               get boxed * 6";
    for &s in SCHEDULES {
        assert_eq!(run(src, s).render(), "42");
    }
}

#[test]
fn untouched_futures_still_complete_before_their_spawner() {
    // Strictness: the par child that spawns (and never touches) a future
    // cannot join until the future finishes; the program terminates with
    // every task accounted for.
    let src = "let p = par((let f = future 5 in 9), 8) in fst p + snd p";
    for &s in SCHEDULES {
        let out = run(src, s);
        assert_eq!(out.render(), "17");
        assert_eq!(out.costs.futures, 1);
        assert_eq!(out.costs.touches, 0);
    }
}

#[test]
fn future_pipeline_is_deterministic() {
    // A three-stage pipeline: each stage is a future touching the
    // previous one. Results agree under every schedule.
    let src = "let s1 = future (2 * 3) in \
               let s2 = future (touch s1 + 10) in \
               let s3 = future (touch s2 * 2) in \
               touch s3";
    let expect = "32";
    for &s in SCHEDULES {
        assert_eq!(run(src, s).render(), expect, "{s:?}");
    }
}

#[test]
fn cross_family_touch_entangles_and_unpins() {
    // The left par branch publishes a future handle (whose result is a
    // heap pair) through a pre-fork cell; the right branch touches it.
    // Depth-first, the right branch runs after the left one, in its heap,
    // and the touch is local. Under a schedule that starts the right
    // branch first (so in a heap of its own) but reads the cell after the
    // write, the revealed pair belongs to the left family: an entangled
    // read, pinned, and released by the join.
    let src = "let c = ref 0 in \
               let p = par((c := future (1, 2); 0), fst (touch !c)) in \
               snd p";
    let out = run(src, Schedule::DepthFirst);
    assert_eq!(out.render(), "1");
    assert_eq!((out.costs.entangled_reads, out.costs.pins), (0, 0));
    let out = run(src, Schedule::Random(3));
    assert_eq!(out.render(), "1");
    assert!(out.costs.entangled_reads >= 1, "the touch crossed families");
    assert!(out.costs.pins >= 1);
    assert_eq!(out.costs.pins, out.costs.unpins, "pins resolve by the end");
    assert!(out.store.pinned_locs().is_empty());
    assert!(out.costs.max_footprint >= out.costs.max_pinned);
}

#[test]
fn cross_family_touch_aborts_under_detect_only() {
    let src = "let c = ref 0 in \
               let p = par((c := future (1, 2); 0), fst (touch !c)) in \
               snd p";
    let detect = |schedule| {
        run_program(
            src,
            Options {
                schedule,
                mode: LangMode::DetectOnly,
                fuel: 1_000_000,
            },
        )
    };
    assert!(detect(Schedule::DepthFirst).is_ok(), "nothing entangles");
    let res = detect(Schedule::Random(3));
    assert!(
        matches!(res, Err(RunError::Eval(LangError::Entangled))),
        "prior MPL rejects entangling touches: {res:?}"
    );
}

#[test]
fn local_touch_of_a_flat_future_never_entangles() {
    // The future returns an immediate: nothing to pin, under any schedule.
    for &s in SCHEDULES {
        let out = run("let f = future (10 * 10) in touch f", s);
        assert_eq!(out.costs.entangled_reads, 0);
        assert_eq!(out.costs.pins, 0);
    }
}

#[test]
fn touching_the_creators_own_future_after_absorb_is_local() {
    // The creator touches its own (completed, absorbed) future: the
    // result was absorbed into the creator's heap, so the read is local.
    let out = run(
        "let f = future (3, 4) in fst (touch f) + snd (touch f)",
        Schedule::DepthFirst,
    );
    assert_eq!(out.render(), "7");
    assert_eq!(out.costs.entangled_reads, 0, "absorbed results are local");
    assert_eq!(out.costs.touches, 2);
}

#[test]
fn cyclic_touch_deadlocks_cleanly() {
    // Two-party cycle built through cells; round-robin interleaving lets
    // both sides reach their touch. The interpreter reports deadlock
    // instead of spinning fuel away.
    let src = "let flag = ref 0 in \
               let hold = ref 0 in \
               let f = future ( \
                 let w = fix w x => if !flag = 0 then w 0 else 0 in \
                 (w 0; touch !hold) \
               ) in \
               (hold := f; flag := 1; touch f)";
    let res = run_program(src, opts(Schedule::RoundRobin));
    assert!(
        matches!(res, Err(RunError::Eval(LangError::Deadlock))),
        "expected deadlock, got {res:?}"
    );
}

#[test]
fn touch_of_a_non_future_is_a_type_error() {
    let res = run_program("touch 5", opts(Schedule::DepthFirst));
    assert!(matches!(res, Err(RunError::Eval(LangError::Type(_)))));
}

#[test]
fn span_accounts_for_touch_dependencies() {
    // Sequential chain through touches: span ~ sum of stage spans, so it
    // must exceed each stage's own steps.
    let src = "let s1 = future (1 + 1) in let s2 = future (touch s1 + 1) in touch s2";
    let out = run(src, Schedule::RoundRobin);
    assert!(out.costs.span > 4, "span tracks the touch chain");
    assert!(out.costs.span <= out.costs.steps);
}

#[test]
fn futures_render_as_opaque_handles() {
    let out = run("future 1", Schedule::DepthFirst);
    assert!(out.render().starts_with("<future"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random future pipelines: each stage adds a random constant to a
    /// touch of a random earlier stage. Deterministic by construction —
    /// every schedule must agree, and every pin must resolve.
    #[test]
    fn random_pipelines_are_schedule_deterministic(
        consts in proptest::collection::vec((0i64..50, any::<proptest::sample::Index>()), 1..8),
    ) {
        let mut src = String::from("let s0 = future 1 in ");
        for (i, (c, pick)) in consts.iter().enumerate() {
            let dep = pick.index(i + 1); // any earlier stage
            src.push_str(&format!("let s{} = future (touch s{dep} + {c}) in ", i + 1));
        }
        src.push_str(&format!("touch s{}", consts.len()));

        let runs: Vec<String> = SCHEDULES
            .iter()
            .map(|&s| {
                let out = run_program(&src, opts(s)).expect("run");
                prop_assert!(out.store.pinned_locs().is_empty());
                Ok(out.render())
            })
            .collect::<Result<_, TestCaseError>>()?;
        prop_assert_eq!(&runs[0], &runs[1], "{}", src);
        prop_assert_eq!(&runs[0], &runs[2], "{}", src);
    }
}
