//! The static-analysis pass framework, end to end: golden diagnostics for
//! every lint code, span-carrying error paths, the duplicate-declaration
//! parser regression, and the semantics-preservation property — the
//! optimized fixpoint must be byte-identical to the unoptimized one on
//! every declared output relation, on every `GPULOG_TEST_BACKEND` matrix
//! leg.

use gpulog::{parse_program, EngineError, GpulogEngine, LintCode, LintLevel, Program};
use gpulog_device::{profile::DeviceProfile, Device};
use gpulog_tests::{config_from_env, PROPERTY_PROGRAMS};
use proptest::prelude::*;

fn device() -> Device {
    Device::with_workers(DeviceProfile::nvidia_h100(), 4)
}

/// A program exercising every lint code exactly once, with known line
/// numbers:
///
/// - `Stray` is written but read by nothing and is not an output (GL001)
/// - the `Stray` rule therefore feeds no output or goal (GL002)
/// - `lonely` in the `Far` rule is a singleton (GL003)
/// - the `Near` rule repeats `Edge(x, y)` (GL004)
/// - the `Never` rule carries `1 = 2` (GL005)
/// - `Pick` reads `Tag(3, x)` but every `Tag` writer pins column 0
///   to 1 (GL006)
/// - the third `Reach` rule is subsumed by the first (GL007)
const EVERY_LINT_PROGRAM: &str = "\
.decl Edge(x: number, y: number)\n\
.decl Reach(x: number, y: number)\n\
.decl Near(x: number, y: number)\n\
.decl Far(x: number, y: number)\n\
.decl Stray(x: number)\n\
.decl Never(x: number)\n\
.decl Tag(t: number, v: number)\n\
.decl Pick(v: number)\n\
.input Edge\n\
.output Reach\n\
.output Near\n\
.output Far\n\
.output Never\n\
.output Pick\n\
Reach(x, y) :- Edge(x, y).\n\
Reach(x, y) :- Edge(x, z), Reach(z, y).\n\
Reach(x, y) :- Edge(x, y), Reach(x, y).\n\
Near(x, y) :- Edge(x, y), Edge(x, y).\n\
Far(x, y) :- Edge(x, y), Edge(x, lonely).\n\
Stray(x) :- Edge(x, _).\n\
Never(x) :- Edge(x, _), 1 = 2.\n\
Tag(1, x) :- Edge(x, _).\n\
Pick(x) :- Tag(3, x).\n";

#[test]
fn golden_diagnostics_cover_every_lint_code() {
    let program = parse_program(EVERY_LINT_PROGRAM).unwrap();
    let diags = gpulog::lint_program(&program);
    let codes: Vec<&str> = diags.iter().map(|d| d.code.code()).collect();
    assert_eq!(
        codes,
        vec!["GL001", "GL002", "GL003", "GL004", "GL005", "GL006", "GL007"],
        "one finding per lint, in code order:\n{diags}"
    );

    let find = |code: LintCode| diags.iter().find(|d| d.code == code).unwrap();
    // GL001 anchors to the declaration (no rule, no span).
    let unused = find(LintCode::UnusedRelation);
    assert!(unused.message.contains("Stray"));
    assert_eq!(unused.rule, None);
    assert!(!unused.span.is_known());
    // Rule-anchored findings carry the 1-based source line of their rule
    // head (or offending atom), and the rule's index.
    let unreachable = find(LintCode::UnreachableRule);
    assert_eq!((unreachable.rule, unreachable.span.line), (Some(5), 20));
    let singleton = find(LintCode::SingletonVariable);
    assert_eq!((singleton.rule, singleton.span.line), (Some(4), 19));
    assert!(singleton.message.contains("lonely"));
    let duplicate = find(LintCode::DuplicateLiteral);
    assert_eq!(duplicate.rule, Some(3));
    assert_eq!(duplicate.span.line, 18, "anchored at the repeated literal");
    assert!(
        duplicate.span.column > 1,
        "the second Edge atom is mid-line"
    );
    let always_false = find(LintCode::AlwaysFalse);
    assert_eq!((always_false.rule, always_false.span.line), (Some(6), 21));
    let mismatch = find(LintCode::ConstantMismatch);
    assert_eq!(mismatch.rule, Some(8));
    assert_eq!(mismatch.span.line, 23, "anchored at the Tag(3, x) literal");
    let subsumed = find(LintCode::SubsumedRule);
    assert_eq!((subsumed.rule, subsumed.span.line), (Some(2), 17));

    // The rendering contract golden tests and the CLI both rely on.
    let rendered = singleton.to_string();
    assert!(rendered.starts_with("warning[GL003]:"), "got: {rendered}");
    assert!(
        rendered.ends_with("at line 19, column 1"),
        "got: {rendered}"
    );
}

#[test]
fn engine_surfaces_diagnostics_and_deny_fails_the_build() {
    let d = device();
    let engine = GpulogEngine::builder(&d)
        .program(EVERY_LINT_PROGRAM)
        .config(config_from_env())
        .build()
        .expect("warn level collects findings without failing");
    assert_eq!(engine.diagnostics().len(), 7);

    let err = GpulogEngine::builder(&d)
        .program(EVERY_LINT_PROGRAM)
        .config(config_from_env())
        .lint(LintLevel::Deny)
        .build()
        .unwrap_err();
    match err {
        EngineError::LintDenied { count, ref first } => {
            assert_eq!(count, 7);
            assert!(first.starts_with("warning[GL001]"), "got: {first}");
        }
        other => panic!("expected LintDenied, got {other:?}"),
    }

    let engine = GpulogEngine::builder(&d)
        .program(EVERY_LINT_PROGRAM)
        .config(config_from_env())
        .lint(LintLevel::Allow)
        .build()
        .expect("allow skips the lints");
    assert!(engine.diagnostics().is_empty());
}

#[test]
fn facade_exposes_diagnostics_at_the_default_warn_level() {
    let d = device();
    let engine = GpulogEngine::builder(&d)
        .program(EVERY_LINT_PROGRAM)
        .build()
        .unwrap();
    assert!(engine.diagnostics().has(LintCode::SingletonVariable));
    assert_eq!(engine.diagnostics().len(), 7);
}

#[test]
fn duplicate_input_and_output_declarations_are_rejected_with_spans() {
    let err = parse_program(
        ".decl Edge(x: number, y: number)\n\
         .input Edge\n\
         .input Edge\n",
    )
    .unwrap_err();
    match err {
        EngineError::Parse {
            line,
            column,
            ref message,
            ..
        } => {
            assert_eq!((line, column), (3, 8), "span pins the second declaration");
            assert!(message.contains("duplicate .input declaration for Edge"));
        }
        other => panic!("expected a parse error, got {other:?}"),
    }

    let err = parse_program(
        ".decl Reach(x: number, y: number)\n\
         .output Reach\n\
         .output Reach\n",
    )
    .unwrap_err();
    match err {
        EngineError::Parse {
            line, ref message, ..
        } => {
            assert_eq!(line, 3);
            assert!(message.contains("duplicate .output declaration for Reach"));
        }
        other => panic!("expected a parse error, got {other:?}"),
    }

    // Declaring a relation as both .input and .output stays legal.
    parse_program(
        ".decl Edge(x: number, y: number)\n\
         .input Edge\n\
         .output Edge\n",
    )
    .unwrap();
}

#[test]
fn unbound_variable_errors_carry_the_parse_span() {
    // Unbound head variable: pinned to the rule head's atom. Parsing
    // succeeds — safety validation happens in `stratify_program`.
    let program = parse_program(
        ".decl Edge(x: number, y: number)\n\
         .decl R(x: number)\n\
         .input Edge\n\
         .output R\n\
         R(ghost) :- Edge(x, y).\n",
    )
    .unwrap();
    let err = gpulog::stratify_program(&program).unwrap_err();
    match err {
        EngineError::UnboundVariable {
            line,
            column,
            ref variable,
            ..
        } => {
            assert_eq!((line, column), (5, 1));
            assert_eq!(variable, "ghost");
        }
        other => panic!("expected UnboundVariable, got {other:?}"),
    }

    // Unbound negated-atom variable: pinned to the negated atom itself.
    let program = parse_program(
        ".decl Edge(x: number, y: number)\n\
         .decl Blocked(x: number)\n\
         .decl R(x: number)\n\
         .input Edge\n\
         .input Blocked\n\
         .output R\n\
         R(x) :- Edge(x, _), !Blocked(z).\n",
    )
    .unwrap();
    let err = gpulog::stratify_program(&program).unwrap_err();
    match err {
        EngineError::UnboundVariable {
            line,
            column,
            ref context,
            ..
        } => {
            assert_eq!(line, 7);
            assert!(
                column > 1,
                "the negated atom sits mid-line, got column {column}"
            );
            assert!(context.contains("negated atom Blocked"));
        }
        other => panic!("expected UnboundVariable, got {other:?}"),
    }

    // Programmatically-built rules carry no span and the display omits it.
    let program = gpulog::ProgramBuilder::new()
        .input_relation("Edge", 2)
        .output_relation("R", 1)
        .rule("R", vec![gpulog::Term::var("ghost")])
        .body("Edge", vec![gpulog::Term::var("x"), gpulog::Term::var("y")])
        .end_rule()
        .build()
        .unwrap();
    let err = gpulog::stratify_program(&program).unwrap_err();
    match err {
        EngineError::UnboundVariable { line, column, .. } => {
            assert_eq!((line, column), (0, 0));
            assert!(!err.to_string().contains("line"));
        }
        other => panic!("expected UnboundVariable, got {other:?}"),
    }
}

#[test]
fn goal_directed_runs_still_reach_relations_the_optimizer_pruned() {
    // Scratch is dead weight for the full run (the optimizer prunes its
    // rule from the compiled program), but a goal-directed query targets
    // it through the retained original AST and must still see its tuples.
    let d = device();
    let mut engine = GpulogEngine::builder(&d)
        .program(
            ".decl Edge(x: number, y: number)\n\
             .input Edge\n\
             .decl Reach(x: number, y: number)\n\
             .output Reach\n\
             .decl Scratch(x: number, y: number)\n\
             Reach(x, y) :- Edge(x, y).\n\
             Reach(x, y) :- Edge(x, z), Reach(z, y).\n\
             Scratch(y, x) :- Reach(x, y).\n",
        )
        .config(config_from_env())
        .build()
        .unwrap();
    engine
        .add_facts("Edge", [[0u32, 1], [1, 2], [2, 3]])
        .unwrap();
    let stats = engine.run().unwrap();
    assert_eq!(
        stats.relation_sizes.get("Scratch"),
        Some(&0),
        "the full run must not materialize the dead Scratch relation"
    );
    assert_eq!(engine.relation_size("Reach"), Some(6));

    let result = engine
        .run_query_with("Scratch", &[None, Some(0)])
        .expect("the query path evaluates the original AST");
    let answers: Vec<&[u32]> = result.answers.rows().collect();
    assert_eq!(answers, vec![&[1u32, 0][..], &[2, 0], &[3, 0]]);
}

/// Sorted tuples of every declared output relation.
fn output_fixpoint(engine: &GpulogEngine, program: &Program) -> Vec<(String, Vec<Vec<u32>>)> {
    program
        .relations
        .iter()
        .filter(|decl| decl.is_output)
        .map(|decl| {
            let mut tuples = engine
                .relation_batch(&decl.name)
                .map(|b| b.to_rows())
                .expect("declared relations exist");
            tuples.sort();
            (decl.name.clone(), tuples)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Semantics preservation on the configured backend matrix leg: for
    // random edge sets, the optimized engine's fixpoint on every output
    // relation is byte-identical to the unoptimized engine's.
    #[test]
    fn optimized_fixpoint_matches_unoptimized_on_outputs(
        edges in prop::collection::vec((0u32..12, 0u32..12), 0..60),
        which in 0usize..PROPERTY_PROGRAMS.len(),
    ) {
        let source = PROPERTY_PROGRAMS[which];
        let program = parse_program(source).unwrap();
        let d = device();
        let run = |optimize: bool| {
            let mut engine = GpulogEngine::builder(&d)
                .program(source)
                .config(config_from_env())
                .optimize(optimize)
                .build()
                .expect("property program builds");
            engine
                .add_facts("Edge", edges.iter().map(|&(a, b)| [a, b]))
                .unwrap();
            engine.run().unwrap();
            output_fixpoint(&engine, &program)
        };
        let unoptimized = run(false);
        let optimized = run(true);
        prop_assert_eq!(optimized, unoptimized);
    }
}
