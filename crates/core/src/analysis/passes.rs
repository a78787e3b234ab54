//! Multi-pass static analysis: the program linter and the
//! semantics-preserving optimizer.
//!
//! This module runs between parsing/validation ([`super::stratify_program`])
//! and planner lowering. It has two halves sharing one pass framework:
//!
//! * **Diagnostics** ([`lint_program`]) — span-carrying, non-fatal findings
//!   with stable `GLnnn` codes: unused relations (GL001), rules unreachable
//!   from any output or goal (GL002), singleton write-only variables
//!   (GL003), duplicate body literals (GL004), always-false rules with
//!   contradictory constant constraints (GL005), cross-rule constant
//!   inconsistencies (GL006), and subsumed rules (GL007).
//! * **Rewrites** ([`optimize_program`]) — always-false rule elimination,
//!   constant propagation of `= const` bindings into selections, duplicate
//!   literal/constraint removal, subsumed-rule removal, and dead-rule
//!   elimination by backward reachability from the declared outputs and the
//!   `?-` goal. Every rewrite preserves the fixpoint of every output
//!   relation; the rewritten program is re-validated through
//!   [`super::stratify_program`] before it is returned.
//!
//! The engine runs both halves at build time, gated by
//! [`LintLevel`] ([`crate::engine::EngineConfig::lint`]) and
//! [`crate::engine::EngineConfig::optimize`]. The `gpulog-lint` CLI
//! (in the bench crate) exposes [`lint_program`] over `.dl` files.

use crate::ast::{Literal, Program, Rule, Span, Term};
use crate::error::EngineResult;

use super::stratify_program;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// How the engine treats lint findings at build time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum LintLevel {
    /// Skip the lint passes entirely.
    Allow,
    /// Run the lints and surface the findings through
    /// [`crate::engine::GpulogEngine::diagnostics`]; the build succeeds.
    #[default]
    Warn,
    /// Run the lints and fail the build with
    /// [`EngineError::LintDenied`](crate::error::EngineError::LintDenied)
    /// when any finding fires.
    Deny,
}

impl fmt::Display for LintLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LintLevel::Allow => "allow",
            LintLevel::Warn => "warn",
            LintLevel::Deny => "deny",
        };
        write!(f, "{s}")
    }
}

/// Severity of one [`Diagnostic`].
///
/// Every current lint reports [`DiagnosticLevel::Warning`]: a program with
/// findings still compiles and runs (unless the engine is configured with
/// [`LintLevel::Deny`]). The `Error` level is reserved for lints whose
/// finding makes the program meaningless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagnosticLevel {
    /// The program is suspicious but well-defined.
    Warning,
    /// The program is well-formed but cannot mean what was written.
    Error,
}

impl fmt::Display for DiagnosticLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DiagnosticLevel::Warning => "warning",
            DiagnosticLevel::Error => "error",
        };
        write!(f, "{s}")
    }
}

/// Stable identifier of one lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// GL001: a declared relation no rule body and no goal ever reads, and
    /// that is not an output.
    UnusedRelation,
    /// GL002: a rule not backward-reachable from any output relation or
    /// `?-` goal; its derivations can never be observed.
    UnreachableRule,
    /// GL003: a named variable used exactly once in its rule — it joins
    /// nothing and should be the wildcard `_`.
    SingletonVariable,
    /// GL004: the same literal appears twice in one rule body.
    DuplicateLiteral,
    /// GL005: a rule whose constraints are contradictory on constants; it
    /// can never derive a tuple.
    AlwaysFalse,
    /// GL006: a positive body literal reads a relation with a constant that
    /// no rule writing that relation can produce.
    ConstantMismatch,
    /// GL007: a rule subsumed by another rule with the same head and a
    /// subset of its body; everything it derives is already derived.
    SubsumedRule,
}

impl LintCode {
    /// The stable `GLnnn` code string.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::UnusedRelation => "GL001",
            LintCode::UnreachableRule => "GL002",
            LintCode::SingletonVariable => "GL003",
            LintCode::DuplicateLiteral => "GL004",
            LintCode::AlwaysFalse => "GL005",
            LintCode::ConstantMismatch => "GL006",
            LintCode::SubsumedRule => "GL007",
        }
    }

    /// The human-readable lint name.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::UnusedRelation => "unused-relation",
            LintCode::UnreachableRule => "unreachable-rule",
            LintCode::SingletonVariable => "singleton-variable",
            LintCode::DuplicateLiteral => "duplicate-literal",
            LintCode::AlwaysFalse => "always-false",
            LintCode::ConstantMismatch => "constant-mismatch",
            LintCode::SubsumedRule => "subsumed-rule",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: LintCode,
    /// Severity of the finding.
    pub level: DiagnosticLevel,
    /// Human-readable description, naming the offending construct.
    pub message: String,
    /// Index of the offending rule in [`Program::rules`], when the finding
    /// is anchored to a rule (relation-level findings carry `None`).
    pub rule: Option<usize>,
    /// Source position of the offending construct ([`Span::NONE`] when the
    /// program was assembled programmatically or the finding has no
    /// source anchor).
    pub span: Span,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.level, self.code.code(), self.message)?;
        if self.span.is_known() {
            write!(f, " at {}", self.span)?;
        }
        Ok(())
    }
}

/// All findings produced by one [`lint_program`] run, in pass order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramDiagnostics {
    diagnostics: Vec<Diagnostic>,
}

impl ProgramDiagnostics {
    /// The findings as a slice.
    pub fn as_slice(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Iterates over the findings.
    pub fn iter(&self) -> std::slice::Iter<'_, Diagnostic> {
        self.diagnostics.iter()
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// Whether the program linted clean.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether any finding carries the given code.
    pub fn has(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }
}

impl<'a> IntoIterator for &'a ProgramDiagnostics {
    type Item = &'a Diagnostic;
    type IntoIter = std::slice::Iter<'a, Diagnostic>;

    fn into_iter(self) -> Self::IntoIter {
        self.diagnostics.iter()
    }
}

impl fmt::Display for ProgramDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Runs every lint pass over `program` and collects the findings.
///
/// Lints never fail: a structurally invalid program simply produces the
/// findings its valid parts support (build-time validation is
/// [`super::stratify_program`]'s job). Findings are grouped by lint in
/// `GL001..GL007` order and anchored to rule indices and parse spans where
/// available.
pub fn lint_program(program: &Program) -> ProgramDiagnostics {
    let mut diagnostics = Vec::new();
    lint_unused_relations(program, &mut diagnostics);
    lint_unreachable_rules(program, &mut diagnostics);
    lint_singleton_variables(program, &mut diagnostics);
    lint_duplicate_literals(program, &mut diagnostics);
    lint_always_false(program, &mut diagnostics);
    lint_constant_mismatch(program, &mut diagnostics);
    lint_subsumed_rules(program, &mut diagnostics);
    ProgramDiagnostics { diagnostics }
}

/// GL001: declared relations nothing reads.
///
/// A relation is *used* when it is an output, the `?-` goal's relation, or
/// read by any body literal (positive or negated). A declared relation
/// used by nothing — including a `.input` relation whose facts no rule
/// consumes — is dead weight and usually a typo.
fn lint_unused_relations(program: &Program, out: &mut Vec<Diagnostic>) {
    let mut used: HashSet<&str> = HashSet::new();
    for rule in &program.rules {
        for literal in &rule.body {
            used.insert(literal.atom().relation.as_str());
        }
    }
    if let Some(query) = &program.query {
        used.insert(query.atom.relation.as_str());
    }
    for decl in &program.relations {
        if !decl.is_output && !used.contains(decl.name.as_str()) {
            out.push(Diagnostic {
                code: LintCode::UnusedRelation,
                level: DiagnosticLevel::Warning,
                message: format!(
                    "relation {} is never read by a rule body, goal, or output",
                    decl.name
                ),
                rule: None,
                span: Span::NONE,
            });
        }
    }
}

/// Backward reachability from the observable roots (output relations and
/// the `?-` goal) through the precedence graph: a rule is reachable when
/// its head relation is needed, and a needed rule makes every relation in
/// its body (positive and negated) needed in turn.
///
/// Returns `None` when the program declares no outputs and carries no goal
/// — then nothing is observable and reachability is meaningless, so both
/// the GL002 lint and dead-rule elimination stand down.
fn rule_reachability(program: &Program) -> Option<Vec<bool>> {
    let mut roots: Vec<&str> = program
        .relations
        .iter()
        .filter(|d| d.is_output)
        .map(|d| d.name.as_str())
        .collect();
    if let Some(query) = &program.query {
        roots.push(query.atom.relation.as_str());
    }
    if roots.is_empty() {
        return None;
    }
    let mut rules_of: HashMap<&str, Vec<usize>> = HashMap::new();
    for (ri, rule) in program.rules.iter().enumerate() {
        rules_of
            .entry(rule.head.relation.as_str())
            .or_default()
            .push(ri);
    }
    let mut needed: HashSet<&str> = HashSet::new();
    let mut queue: VecDeque<&str> = VecDeque::new();
    for root in roots {
        if needed.insert(root) {
            queue.push_back(root);
        }
    }
    let mut reachable = vec![false; program.rules.len()];
    while let Some(rel) = queue.pop_front() {
        for &ri in rules_of.get(rel).map_or(&[][..], |v| v.as_slice()) {
            if reachable[ri] {
                continue;
            }
            reachable[ri] = true;
            for literal in &program.rules[ri].body {
                let body_rel = literal.atom().relation.as_str();
                if needed.insert(body_rel) {
                    queue.push_back(body_rel);
                }
            }
        }
    }
    Some(reachable)
}

/// GL002: rules no output or goal can observe.
fn lint_unreachable_rules(program: &Program, out: &mut Vec<Diagnostic>) {
    let Some(reachable) = rule_reachability(program) else {
        return;
    };
    for (ri, rule) in program.rules.iter().enumerate() {
        if !reachable[ri] {
            out.push(Diagnostic {
                code: LintCode::UnreachableRule,
                level: DiagnosticLevel::Warning,
                message: format!(
                    "rule `{rule}` is unreachable from every output relation and goal"
                ),
                rule: Some(ri),
                span: rule.span,
            });
        }
    }
}

/// Occurrence count of every named variable in `rule`, across the head,
/// all body literals, and all constraint operands. (The aggregate variable
/// is counted through its head column.)
fn variable_occurrences(rule: &Rule) -> HashMap<&str, usize> {
    // A single pass over every term position in the rule.
    let constraint_terms = rule.constraints.iter().flat_map(|c| [&c.left, &c.right]);
    let terms = rule
        .head
        .terms
        .iter()
        .chain(rule.body.iter().flat_map(|l| l.atom().terms.iter()))
        .chain(constraint_terms);
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for term in terms {
        if let Term::Var(v) = term {
            *counts.entry(v.as_str()).or_insert(0) += 1;
        }
    }
    counts
}

/// GL003: variables bound once and used nowhere else.
///
/// A variable occurring exactly once joins nothing, selects nothing, and
/// projects nothing — it is a don't-care that should be spelled `_`.
/// Variables already spelled with a leading underscore (including the
/// parser's `_anonN` expansion of `_`) are intentional don't-cares and are
/// skipped.
fn lint_singleton_variables(program: &Program, out: &mut Vec<Diagnostic>) {
    for (ri, rule) in program.rules.iter().enumerate() {
        let counts = variable_occurrences(rule);
        let mut singles: Vec<&str> = counts
            .iter()
            .filter(|(name, &count)| count == 1 && !name.starts_with('_'))
            .map(|(&name, _)| name)
            .collect();
        singles.sort_unstable();
        for name in singles {
            out.push(Diagnostic {
                code: LintCode::SingletonVariable,
                level: DiagnosticLevel::Warning,
                message: format!(
                    "variable {name} in rule `{rule}` is used only once; \
                     replace it with `_`"
                ),
                rule: Some(ri),
                span: rule.span,
            });
        }
    }
}

/// GL004: literals repeated inside one body.
fn lint_duplicate_literals(program: &Program, out: &mut Vec<Diagnostic>) {
    for (ri, rule) in program.rules.iter().enumerate() {
        let mut seen: Vec<&Literal> = Vec::new();
        for literal in &rule.body {
            if seen.contains(&literal) {
                out.push(Diagnostic {
                    code: LintCode::DuplicateLiteral,
                    level: DiagnosticLevel::Warning,
                    message: format!("duplicate body literal `{literal}` in rule `{rule}`"),
                    rule: Some(ri),
                    span: literal.atom().span,
                });
            } else {
                seen.push(literal);
            }
        }
    }
}

/// Decides whether `rule`'s constraints are contradictory on constants
/// alone: a constant-vs-constant comparison that fails, a variable with the
/// same name on both sides of a strict comparison, or `= const` equalities
/// that pin a variable to two different values (directly or through
/// another failing comparison).
fn constraints_always_false(rule: &Rule) -> bool {
    let mut pinned: HashMap<&str, u32> = HashMap::new();
    for c in &rule.constraints {
        match (&c.left, &c.right) {
            (Term::Const(l), Term::Const(r)) if !c.op.eval(*l, *r) => return true,
            // x op x holds for reflexive operators only.
            (Term::Var(l), Term::Var(r)) if l == r && !c.op.eval(0, 0) => return true,
            _ => {}
        }
        if c.op == crate::ast::CmpOp::Eq {
            let bound = match (&c.left, &c.right) {
                (Term::Var(v), Term::Const(k)) | (Term::Const(k), Term::Var(v)) => {
                    Some((v.as_str(), *k))
                }
                _ => None,
            };
            if let Some((v, k)) = bound {
                if *pinned.entry(v).or_insert(k) != k {
                    return true;
                }
            }
        }
    }
    // Re-check the remaining comparisons under the pinned values.
    for c in &rule.constraints {
        let value = |t: &Term| match t {
            Term::Const(k) => Some(*k),
            Term::Var(v) => pinned.get(v.as_str()).copied(),
        };
        if let (Some(l), Some(r)) = (value(&c.left), value(&c.right)) {
            if !c.op.eval(l, r) {
                return true;
            }
        }
    }
    false
}

/// GL005: rules that can never derive a tuple.
fn lint_always_false(program: &Program, out: &mut Vec<Diagnostic>) {
    for (ri, rule) in program.rules.iter().enumerate() {
        if constraints_always_false(rule) {
            out.push(Diagnostic {
                code: LintCode::AlwaysFalse,
                level: DiagnosticLevel::Warning,
                message: format!(
                    "rule `{rule}` can never fire: its constraints are \
                     contradictory on constants"
                ),
                rule: Some(ri),
                span: rule.span,
            });
        }
    }
}

/// Per-relation, per-column sets of head constants: for every non-input
/// relation all of whose writing rules put a constant in column `k`, the
/// set of those constants. Columns any writer leaves variable — and
/// relations with no writers or with `.input` facts — are `None`.
fn constant_columns(program: &Program) -> HashMap<&str, Vec<Option<HashSet<u32>>>> {
    let mut columns: HashMap<&str, Vec<Option<HashSet<u32>>>> = HashMap::new();
    for rule in &program.rules {
        let relation = rule.head.relation.as_str();
        if program.relation(relation).is_none_or(|d| d.is_input) {
            continue;
        }
        let entry = columns
            .entry(relation)
            .or_insert_with(|| vec![Some(HashSet::new()); rule.head.terms.len()]);
        for (k, term) in rule.head.terms.iter().enumerate() {
            let Some(slot) = entry.get_mut(k) else {
                continue;
            };
            match term {
                Term::Const(c) => {
                    if let Some(set) = slot {
                        set.insert(*c);
                    }
                }
                Term::Var(_) => *slot = None,
            }
        }
    }
    columns
}

/// GL006: positive body literals selecting a constant that no writer of
/// the relation ever produces in that column.
///
/// Restricted to non-input relations (input facts arrive at runtime) and
/// positive literals: a negated literal over an impossible constant is
/// *always true*, which is suspicious for a different reason but not a
/// contradiction.
fn lint_constant_mismatch(program: &Program, out: &mut Vec<Diagnostic>) {
    let columns = constant_columns(program);
    for (ri, rule) in program.rules.iter().enumerate() {
        for atom in rule.positive_atoms() {
            let Some(cols) = columns.get(atom.relation.as_str()) else {
                continue;
            };
            for (k, term) in atom.terms.iter().enumerate() {
                let (Term::Const(c), Some(Some(written))) = (term, cols.get(k)) else {
                    continue;
                };
                if !written.contains(c) {
                    out.push(Diagnostic {
                        code: LintCode::ConstantMismatch,
                        level: DiagnosticLevel::Warning,
                        message: format!(
                            "literal `{atom}` in rule `{rule}` selects constant {c} \
                             in column {k} of {}, but every rule writing {} puts \
                             a different constant there",
                            atom.relation, atom.relation
                        ),
                        rule: Some(ri),
                        span: atom.span,
                    });
                }
            }
        }
    }
}

/// Whether `by` subsumes `rule`: identical head atom (same variable
/// names), neither rule aggregates, and `by`'s literals and constraints
/// are each contained in `rule`'s. Then every body binding satisfying
/// `rule` satisfies `by`, so every head tuple `rule` derives, `by`
/// derives too.
fn subsumes(by: &Rule, rule: &Rule) -> bool {
    by.head == rule.head
        && by.aggregate.is_none()
        && rule.aggregate.is_none()
        && by.body.iter().all(|l| rule.body.contains(l))
        && by.constraints.iter().all(|c| rule.constraints.contains(c))
}

/// For each rule, the index of a rule that subsumes it, preferring a
/// strictly smaller subsumer and breaking exact ties (identical rules)
/// toward the earlier index so exactly one copy of a duplicated rule
/// survives.
fn subsumed_by(rules: &[Rule]) -> Vec<Option<usize>> {
    let mut result = vec![None; rules.len()];
    for (i, rule) in rules.iter().enumerate() {
        for (j, by) in rules.iter().enumerate() {
            if i == j || !subsumes(by, rule) {
                continue;
            }
            let strictly_smaller =
                by.body.len() < rule.body.len() || by.constraints.len() < rule.constraints.len();
            if strictly_smaller || (j < i && subsumes(rule, by)) {
                result[i] = Some(j);
                break;
            }
        }
    }
    result
}

/// GL007: rules whose derivations another rule already produces.
fn lint_subsumed_rules(program: &Program, out: &mut Vec<Diagnostic>) {
    for (ri, by) in subsumed_by(&program.rules).into_iter().enumerate() {
        let Some(by) = by else {
            continue;
        };
        let rule = &program.rules[ri];
        out.push(Diagnostic {
            code: LintCode::SubsumedRule,
            level: DiagnosticLevel::Warning,
            message: format!(
                "rule `{rule}` is subsumed by `{}`: everything it derives \
                 is already derived",
                program.rules[by]
            ),
            rule: Some(ri),
            span: rule.span,
        });
    }
}

/// The result of [`optimize_program`]: the rewritten program plus counters
/// describing what each rewrite did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptimizeReport {
    /// The rewritten, re-validated program.
    pub program: Program,
    /// Rules dropped because their constraints were contradictory (GL005).
    pub always_false_rules_removed: usize,
    /// `= const` bindings substituted into their rules' atoms.
    pub constants_propagated: usize,
    /// Duplicate body literals removed (GL004).
    pub duplicate_literals_removed: usize,
    /// Duplicate or trivially-true constraints removed.
    pub constraints_removed: usize,
    /// Rules removed because another rule subsumes them (GL007).
    pub subsumed_rules_removed: usize,
    /// Rules removed as unreachable from every output and goal (GL002).
    pub dead_rules_removed: usize,
}

impl OptimizeReport {
    /// Total number of rules the rewrites removed.
    pub fn rules_removed(&self) -> usize {
        self.always_false_rules_removed + self.subsumed_rules_removed + self.dead_rules_removed
    }

    /// Whether any rewrite changed the program.
    pub fn changed(&self) -> bool {
        self.rules_removed() > 0
            || self.constants_propagated > 0
            || self.duplicate_literals_removed > 0
            || self.constraints_removed > 0
    }
}

/// Propagates `var = const` equality constraints through `rule`:
/// each such constraint is deleted and the constant substituted for the
/// variable everywhere in the rule, turning downstream join columns into
/// selections the planner pushes into the scan. The aggregate variable is
/// never substituted (its head column must stay a variable).
///
/// Returns the number of bindings propagated.
fn propagate_constants(rule: &mut Rule) -> usize {
    let mut propagated = 0;
    loop {
        let skip = rule.aggregate.as_ref().map(|a| a.var.clone());
        let binding = rule.constraints.iter().position(|c| {
            c.op == crate::ast::CmpOp::Eq
                && matches!(
                    (&c.left, &c.right),
                    (Term::Var(v), Term::Const(_)) | (Term::Const(_), Term::Var(v))
                        if Some(v.as_str()) != skip.as_deref()
                )
        });
        let Some(i) = binding else {
            break;
        };
        let c = rule.constraints.remove(i);
        let (var, value) = match (c.left, c.right) {
            (Term::Var(v), Term::Const(k)) | (Term::Const(k), Term::Var(v)) => (v, k),
            _ => unreachable!("position() matched a var/const equality"),
        };
        let substitute = |term: &mut Term| {
            if term.as_var() == Some(var.as_str()) {
                *term = Term::Const(value);
            }
        };
        rule.head.terms.iter_mut().for_each(substitute);
        for literal in &mut rule.body {
            let atom = match literal {
                Literal::Pos(a) | Literal::Neg(a) => a,
            };
            atom.terms.iter_mut().for_each(substitute);
        }
        for c in &mut rule.constraints {
            substitute(&mut c.left);
            substitute(&mut c.right);
        }
        propagated += 1;
    }
    propagated
}

/// Drops constraints that hold for every binding: `const op const`
/// comparisons that evaluate true (typically left behind by constant
/// propagation) and reflexive same-variable comparisons (`x = x`,
/// `x <= x`, `x >= x`). Returns the number removed. Constraints that
/// *fail* on constants are kept — [`constraints_always_false`] removes the
/// whole rule instead.
fn drop_trivial_constraints(rule: &mut Rule) -> usize {
    let before = rule.constraints.len();
    rule.constraints.retain(|c| match (&c.left, &c.right) {
        (Term::Const(l), Term::Const(r)) => !c.op.eval(*l, *r),
        (Term::Var(l), Term::Var(r)) if l == r => !c.op.eval(0, 0),
        _ => true,
    });
    before - rule.constraints.len()
}

/// Rewrites `program` through every semantics-preserving pass and
/// re-validates the result.
///
/// Pass order: always-false rule elimination, per-rule constant
/// propagation (which can expose new contradictions, so always-false runs
/// again on the substituted rule), duplicate literal and trivial
/// constraint removal, subsumed/duplicate rule removal, and dead-rule
/// elimination rooted at the declared outputs and the `?-` goal (skipped
/// entirely for programs with no outputs and no goal, where everything
/// would be "dead"). Relation declarations are never touched: extensional
/// facts load by declaration, with or without surviving rules.
///
/// Every pass preserves the fixpoint of every output relation and of the
/// goal's relation, so `run()` and `run_query()` results are byte-identical
/// between the original and rewritten program.
///
/// # Errors
///
/// Returns whatever [`super::stratify_program`] reports on the *input*
/// program — optimization refuses to touch an invalid program, so rewrites
/// can never mask a validation error — and re-propagates any error from
/// re-validating the rewritten program (which would be an optimizer bug).
pub fn optimize_program(program: &Program) -> EngineResult<OptimizeReport> {
    stratify_program(program)?;
    let mut report = OptimizeReport {
        program: program.clone(),
        ..OptimizeReport::default()
    };
    let p = &mut report.program;

    // Always-false elimination, before and again during constant
    // propagation (substitution can surface new constant contradictions).
    let before = p.rules.len();
    p.rules.retain(|r| !constraints_always_false(r));
    report.always_false_rules_removed += before - p.rules.len();

    for rule in &mut p.rules {
        report.constants_propagated += propagate_constants(rule);
    }
    let before = p.rules.len();
    p.rules.retain(|r| !constraints_always_false(r));
    report.always_false_rules_removed += before - p.rules.len();

    for rule in &mut p.rules {
        let before = rule.body.len();
        let mut kept: Vec<Literal> = Vec::with_capacity(rule.body.len());
        for literal in rule.body.drain(..) {
            if !kept.contains(&literal) {
                kept.push(literal);
            }
        }
        rule.body = kept;
        report.duplicate_literals_removed += before - rule.body.len();

        report.constraints_removed += drop_trivial_constraints(rule);
        let before = rule.constraints.len();
        let mut kept = Vec::with_capacity(rule.constraints.len());
        for c in rule.constraints.drain(..) {
            if !kept.contains(&c) {
                kept.push(c);
            }
        }
        rule.constraints = kept;
        report.constraints_removed += before - rule.constraints.len();
    }

    // Subsumed-rule removal to a fixpoint: removing one rule can make a
    // chain of subsumptions resolve (A ⊐ B ⊐ C collapses to C alone).
    loop {
        let subsumed = subsumed_by(&p.rules);
        // Only drop rules whose subsumer survives this round, so mutual
        // (identical) pairs lose exactly one member and subsumption chains
        // resolve over successive rounds.
        let mut dropped: HashSet<usize> = HashSet::new();
        for (i, by) in subsumed.iter().enumerate() {
            if by.is_some_and(|j| subsumed[j].is_none()) {
                dropped.insert(i);
            }
        }
        if dropped.is_empty() {
            break;
        }
        let mut idx = 0;
        p.rules.retain(|_| {
            let keep = !dropped.contains(&idx);
            idx += 1;
            keep
        });
        report.subsumed_rules_removed += dropped.len();
    }

    if let Some(reachable) = rule_reachability(p) {
        let before = p.rules.len();
        let mut idx = 0;
        p.rules.retain(|_| {
            let keep = reachable[idx];
            idx += 1;
            keep
        });
        report.dead_rules_removed += before - p.rules.len();
    }

    stratify_program(p)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CmpOp, ProgramBuilder, Term};
    use crate::error::EngineError;
    use crate::parser::parse_program;

    fn codes(diags: &ProgramDiagnostics) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.code()).collect()
    }

    #[test]
    fn clean_program_lints_clean() {
        let program = parse_program(
            ".decl Edge(a: number, b: number)\n\
             .decl Reach(a: number, b: number)\n\
             .input Edge\n\
             .output Reach\n\
             Reach(x, y) :- Edge(x, y).\n\
             Reach(x, y) :- Edge(x, z), Reach(z, y).\n",
        )
        .unwrap();
        let diags = lint_program(&program);
        assert!(diags.is_empty(), "unexpected findings:\n{diags}");
    }

    #[test]
    fn unused_relation_fires_and_outputs_are_exempt() {
        let program = parse_program(
            ".decl Edge(a: number, b: number)\n\
             .decl Orphan(a: number)\n\
             .decl Reach(a: number, b: number)\n\
             .input Edge\n\
             .input Orphan\n\
             .output Reach\n\
             Reach(x, y) :- Edge(x, y).\n",
        )
        .unwrap();
        let diags = lint_program(&program);
        assert_eq!(codes(&diags), vec!["GL001"]);
        assert!(diags.as_slice()[0].message.contains("Orphan"));
        assert_eq!(diags.as_slice()[0].rule, None);
    }

    #[test]
    fn goal_relation_counts_as_used() {
        let program = parse_program(
            ".decl Edge(a: number, b: number)\n\
             .decl Reach(a: number, b: number)\n\
             .input Edge\n\
             Reach(x, y) :- Edge(x, y).\n\
             ?- Reach(0, y).\n",
        )
        .unwrap();
        assert!(!lint_program(&program).has(LintCode::UnusedRelation));
    }

    #[test]
    fn unreachable_rule_fires_with_span() {
        let program = parse_program(
            ".decl Edge(a: number, b: number)\n\
             .decl Reach(a: number, b: number)\n\
             .decl Stray(a: number)\n\
             .input Edge\n\
             .output Reach\n\
             Reach(x, y) :- Edge(x, y).\n\
             Stray(x) :- Edge(x, _).\n",
        )
        .unwrap();
        let diags = lint_program(&program);
        assert!(diags.has(LintCode::UnreachableRule));
        let d = diags
            .iter()
            .find(|d| d.code == LintCode::UnreachableRule)
            .unwrap();
        assert_eq!(d.rule, Some(1));
        assert_eq!(d.span.line, 7, "span should anchor at the Stray rule head");
        // Stray is read by nothing either.
        assert!(diags.has(LintCode::UnusedRelation));
    }

    #[test]
    fn no_outputs_no_goal_means_no_reachability_lint() {
        let program = ProgramBuilder::new()
            .input_relation("Edge", 2)
            .relation("Reach", 2)
            .rule("Reach", vec![Term::var("x"), Term::var("y")])
            .body("Edge", vec![Term::var("x"), Term::var("y")])
            .end_rule()
            .build()
            .unwrap();
        assert!(!lint_program(&program).has(LintCode::UnreachableRule));
    }

    #[test]
    fn singleton_variable_fires_but_wildcards_do_not() {
        let program = parse_program(
            ".decl Assign(a: number, b: number)\n\
             .decl Flow(a: number, b: number)\n\
             .input Assign\n\
             .output Flow\n\
             Flow(x, x) :- Assign(x, y).\n\
             Flow(x, x) :- Assign(x, _).\n",
        )
        .unwrap();
        let diags = lint_program(&program);
        let singles: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.code == LintCode::SingletonVariable)
            .collect();
        assert_eq!(
            singles.len(),
            1,
            "y is a singleton; the wildcard is not:\n{diags}"
        );
        assert!(singles[0].message.contains("variable y"));
        assert_eq!(singles[0].rule, Some(0));
    }

    #[test]
    fn duplicate_literal_fires_on_repeated_atom() {
        let program = parse_program(
            ".decl Edge(a: number, b: number)\n\
             .decl Reach(a: number, b: number)\n\
             .input Edge\n\
             .output Reach\n\
             Reach(x, y) :- Edge(x, y), Edge(x, y).\n",
        )
        .unwrap();
        let diags = lint_program(&program);
        assert!(diags.has(LintCode::DuplicateLiteral));
        let d = diags
            .iter()
            .find(|d| d.code == LintCode::DuplicateLiteral)
            .unwrap();
        assert_eq!(d.rule, Some(0));
        assert!(d.span.is_known());
    }

    #[test]
    fn always_false_catches_constant_and_pinned_contradictions() {
        // Direct constant contradiction.
        let direct = ProgramBuilder::new()
            .input_relation("Edge", 2)
            .output_relation("R", 1)
            .rule("R", vec![Term::var("x")])
            .body("Edge", vec![Term::var("x"), Term::var("y")])
            .constraint(Term::Const(1), CmpOp::Eq, Term::Const(2))
            .end_rule()
            .build()
            .unwrap();
        assert!(lint_program(&direct).has(LintCode::AlwaysFalse));

        // x = 1, x = 2 pins x to two values.
        let pinned = ProgramBuilder::new()
            .input_relation("Edge", 2)
            .output_relation("R", 1)
            .rule("R", vec![Term::var("x")])
            .body("Edge", vec![Term::var("x"), Term::var("y")])
            .constraint(Term::var("x"), CmpOp::Eq, Term::Const(1))
            .constraint(Term::var("x"), CmpOp::Eq, Term::Const(2))
            .end_rule()
            .build()
            .unwrap();
        assert!(lint_program(&pinned).has(LintCode::AlwaysFalse));

        // x = 1, x > 5 fails under the pinned value.
        let pinned_cmp = ProgramBuilder::new()
            .input_relation("Edge", 2)
            .output_relation("R", 1)
            .rule("R", vec![Term::var("x")])
            .body("Edge", vec![Term::var("x"), Term::var("y")])
            .constraint(Term::var("x"), CmpOp::Eq, Term::Const(1))
            .constraint(Term::var("x"), CmpOp::Gt, Term::Const(5))
            .end_rule()
            .build()
            .unwrap();
        assert!(lint_program(&pinned_cmp).has(LintCode::AlwaysFalse));

        // x != x never holds.
        let reflexive = ProgramBuilder::new()
            .input_relation("Edge", 2)
            .output_relation("R", 1)
            .rule("R", vec![Term::var("x")])
            .body("Edge", vec![Term::var("x"), Term::var("y")])
            .constraint(Term::var("x"), CmpOp::Ne, Term::var("x"))
            .end_rule()
            .build()
            .unwrap();
        assert!(lint_program(&reflexive).has(LintCode::AlwaysFalse));

        // x = 1, y > 5 is satisfiable: no finding.
        let fine = ProgramBuilder::new()
            .input_relation("Edge", 2)
            .output_relation("R", 1)
            .rule("R", vec![Term::var("x")])
            .body("Edge", vec![Term::var("x"), Term::var("y")])
            .constraint(Term::var("x"), CmpOp::Eq, Term::Const(1))
            .constraint(Term::var("y"), CmpOp::Gt, Term::Const(5))
            .end_rule()
            .build()
            .unwrap();
        assert!(!lint_program(&fine).has(LintCode::AlwaysFalse));
    }

    #[test]
    fn constant_mismatch_fires_only_for_impossible_constants() {
        let program = parse_program(
            ".decl Edge(a: number, b: number)\n\
             .decl Tag(t: number, v: number)\n\
             .decl Out(v: number)\n\
             .decl Bad(v: number)\n\
             .input Edge\n\
             .output Out\n\
             .output Bad\n\
             Tag(1, x) :- Edge(x, _).\n\
             Tag(2, x) :- Edge(_, x).\n\
             Out(x) :- Tag(1, x).\n\
             Bad(x) :- Tag(3, x).\n",
        )
        .unwrap();
        let diags = lint_program(&program);
        let mismatches: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.code == LintCode::ConstantMismatch)
            .collect();
        assert_eq!(
            mismatches.len(),
            1,
            "only Tag(3, x) is impossible:\n{diags}"
        );
        assert_eq!(mismatches[0].rule, Some(3));
        assert!(mismatches[0].message.contains("constant 3"));
    }

    #[test]
    fn constant_mismatch_skips_input_relations_and_negation() {
        // Edge is .input: runtime facts can hold any constant.
        let program = parse_program(
            ".decl Edge(a: number, b: number)\n\
             .decl Out(v: number)\n\
             .input Edge\n\
             .output Out\n\
             Out(x) :- Edge(7, x).\n",
        )
        .unwrap();
        assert!(!lint_program(&program).has(LintCode::ConstantMismatch));

        // A negated impossible literal is always true, not a mismatch.
        let negated = parse_program(
            ".decl Edge(a: number, b: number)\n\
             .decl Tag(t: number, v: number)\n\
             .decl Out(v: number)\n\
             .input Edge\n\
             .output Out\n\
             Tag(1, x) :- Edge(x, _).\n\
             Out(x) :- Edge(x, _), !Tag(3, x).\n",
        )
        .unwrap();
        assert!(!lint_program(&negated).has(LintCode::ConstantMismatch));
    }

    #[test]
    fn subsumed_rule_fires_for_strict_superset_and_duplicates() {
        let strict = parse_program(
            ".decl Edge(a: number, b: number)\n\
             .decl Reach(a: number, b: number)\n\
             .input Edge\n\
             .output Reach\n\
             Reach(x, y) :- Edge(x, y).\n\
             Reach(x, y) :- Edge(x, y), Edge(x, x).\n",
        )
        .unwrap();
        let diags = lint_program(&strict);
        let d = diags
            .iter()
            .find(|d| d.code == LintCode::SubsumedRule)
            .unwrap();
        assert_eq!(d.rule, Some(1), "the longer rule is the subsumed one");

        let dup = parse_program(
            ".decl Edge(a: number, b: number)\n\
             .decl Reach(a: number, b: number)\n\
             .input Edge\n\
             .output Reach\n\
             Reach(x, y) :- Edge(x, y).\n\
             Reach(x, y) :- Edge(x, y).\n",
        )
        .unwrap();
        let diags = lint_program(&dup);
        let subsumed: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.code == LintCode::SubsumedRule)
            .collect();
        assert_eq!(
            subsumed.len(),
            1,
            "exactly one of an identical pair:\n{diags}"
        );
        assert_eq!(subsumed[0].rule, Some(1), "the later duplicate is reported");
    }

    #[test]
    fn aggregated_rules_are_never_subsumed() {
        let program = parse_program(
            ".decl PathLen(a: number, b: number, d: number)\n\
             .decl SP(a: number, b: number, d: number)\n\
             .input PathLen\n\
             .output SP\n\
             SP(x, y, min(d)) :- PathLen(x, y, d).\n\
             SP(x, y, d) :- PathLen(x, y, d).\n",
        )
        .unwrap();
        assert!(!lint_program(&program).has(LintCode::SubsumedRule));
    }

    #[test]
    fn diagnostic_display_includes_code_and_span() {
        let d = Diagnostic {
            code: LintCode::SingletonVariable,
            level: DiagnosticLevel::Warning,
            message: "singleton variable z".into(),
            rule: Some(0),
            span: Span::new(3, 1),
        };
        let text = d.to_string();
        assert!(text.starts_with("warning[GL003]: singleton variable z"));
        assert!(text.contains("line 3, column 1"));
        let none = Diagnostic {
            span: Span::NONE,
            ..d
        };
        assert!(!none.to_string().contains("line"));
    }

    #[test]
    fn lint_code_names_are_stable() {
        let all = [
            LintCode::UnusedRelation,
            LintCode::UnreachableRule,
            LintCode::SingletonVariable,
            LintCode::DuplicateLiteral,
            LintCode::AlwaysFalse,
            LintCode::ConstantMismatch,
            LintCode::SubsumedRule,
        ];
        let codes: Vec<&str> = all.iter().map(|c| c.code()).collect();
        assert_eq!(
            codes,
            vec!["GL001", "GL002", "GL003", "GL004", "GL005", "GL006", "GL007"]
        );
        for c in all {
            assert!(!c.name().is_empty());
            assert_eq!(c.to_string(), c.code());
        }
    }

    #[test]
    fn optimize_removes_always_false_rules() {
        let program = parse_program(
            ".decl Edge(a: number, b: number)\n\
             .decl Reach(a: number, b: number)\n\
             .input Edge\n\
             .output Reach\n\
             Reach(x, y) :- Edge(x, y).\n\
             Reach(x, y) :- Edge(x, y), 1 = 2.\n",
        )
        .unwrap();
        let report = optimize_program(&program).unwrap();
        assert_eq!(report.always_false_rules_removed, 1);
        assert_eq!(report.program.rules.len(), 1);
    }

    #[test]
    fn optimize_propagates_constants_into_selections() {
        let program = parse_program(
            ".decl Edge(a: number, b: number)\n\
             .decl Out(a: number, b: number)\n\
             .input Edge\n\
             .output Out\n\
             Out(x, y) :- Edge(x, y), x = 3.\n",
        )
        .unwrap();
        let report = optimize_program(&program).unwrap();
        assert_eq!(report.constants_propagated, 1);
        let rule = &report.program.rules[0];
        assert!(
            rule.constraints.is_empty(),
            "the binding constraint is consumed"
        );
        assert_eq!(rule.head.terms[0], Term::Const(3));
        assert_eq!(rule.body[0].atom().terms[0], Term::Const(3));
    }

    #[test]
    fn optimize_never_substitutes_the_aggregate_variable() {
        let program = parse_program(
            ".decl PathLen(a: number, b: number, d: number)\n\
             .decl SP(a: number, b: number, d: number)\n\
             .input PathLen\n\
             .output SP\n\
             SP(x, y, min(d)) :- PathLen(x, y, d), d = 4.\n",
        )
        .unwrap();
        let report = optimize_program(&program).unwrap();
        let rule = &report.program.rules[0];
        assert_eq!(
            rule.head.terms[2],
            Term::var("d"),
            "aggregate column stays a variable"
        );
        assert_eq!(
            rule.constraints.len(),
            1,
            "the d = 4 constraint must survive"
        );
    }

    #[test]
    fn optimize_dedups_literals_and_collapses_subsumed_rules() {
        let program = parse_program(
            ".decl Edge(a: number, b: number)\n\
             .decl Reach(a: number, b: number)\n\
             .input Edge\n\
             .output Reach\n\
             Reach(x, y) :- Edge(x, y), Edge(x, y).\n\
             Reach(x, y) :- Edge(x, y).\n",
        )
        .unwrap();
        let report = optimize_program(&program).unwrap();
        assert_eq!(report.duplicate_literals_removed, 1);
        // After dedup the two rules are identical; one survives.
        assert_eq!(report.subsumed_rules_removed, 1);
        assert_eq!(report.program.rules.len(), 1);
        assert_eq!(report.program.rules[0].body.len(), 1);
    }

    #[test]
    fn optimize_eliminates_rules_unreachable_from_outputs() {
        let program = parse_program(
            ".decl Edge(a: number, b: number)\n\
             .decl Reach(a: number, b: number)\n\
             .decl Stray(a: number)\n\
             .decl Straggler(a: number)\n\
             .input Edge\n\
             .output Reach\n\
             Reach(x, y) :- Edge(x, y).\n\
             Reach(x, y) :- Edge(x, z), Reach(z, y).\n\
             Stray(x) :- Straggler(x).\n\
             Straggler(x) :- Edge(x, _).\n",
        )
        .unwrap();
        let report = optimize_program(&program).unwrap();
        assert_eq!(report.dead_rules_removed, 2, "the Stray chain is dead");
        assert_eq!(report.program.rules.len(), 2);
        assert_eq!(
            report.program.relations.len(),
            program.relations.len(),
            "declarations are never dropped"
        );
    }

    #[test]
    fn optimize_keeps_rules_behind_negation_and_goals() {
        // Blocked is only read through negation: still live.
        let negated = parse_program(
            ".decl Edge(a: number, b: number)\n\
             .decl Bad(a: number)\n\
             .decl Blocked(a: number)\n\
             .decl Reach(a: number, b: number)\n\
             .input Edge\n\
             .input Bad\n\
             .output Reach\n\
             Blocked(x) :- Bad(x).\n\
             Reach(x, y) :- Edge(x, y), !Blocked(y).\n",
        )
        .unwrap();
        let report = optimize_program(&negated).unwrap();
        assert_eq!(report.dead_rules_removed, 0);

        // A goal roots reachability even with no .output at all.
        let goal = parse_program(
            ".decl Edge(a: number, b: number)\n\
             .decl Reach(a: number, b: number)\n\
             .input Edge\n\
             Reach(x, y) :- Edge(x, y).\n\
             ?- Reach(0, y).\n",
        )
        .unwrap();
        let report = optimize_program(&goal).unwrap();
        assert_eq!(report.dead_rules_removed, 0);
    }

    #[test]
    fn optimize_without_roots_skips_dead_rule_elimination() {
        let program = ProgramBuilder::new()
            .input_relation("Edge", 2)
            .relation("Reach", 2)
            .rule("Reach", vec![Term::var("x"), Term::var("y")])
            .body("Edge", vec![Term::var("x"), Term::var("y")])
            .end_rule()
            .build()
            .unwrap();
        let report = optimize_program(&program).unwrap();
        assert_eq!(report.dead_rules_removed, 0);
        assert_eq!(report.program.rules.len(), 1);
        assert!(!report.changed());
    }

    #[test]
    fn optimize_rejects_invalid_programs_unchanged() {
        let program = ProgramBuilder::new()
            .input_relation("Edge", 2)
            .output_relation("R", 1)
            .rule("R", vec![Term::var("ghost")])
            .body("Edge", vec![Term::var("x"), Term::var("y")])
            .end_rule()
            .build()
            .unwrap();
        let err = optimize_program(&program).unwrap_err();
        assert!(matches!(err, EngineError::UnboundVariable { .. }));
    }

    #[test]
    fn optimized_program_restratifies() {
        let program = parse_program(
            ".decl Edge(a: number, b: number)\n\
             .decl Blocked(a: number)\n\
             .decl Reach(a: number, b: number)\n\
             .input Edge\n\
             .input Blocked\n\
             .output Reach\n\
             Reach(x, y) :- Edge(x, y), !Blocked(y), x = 1, Edge(x, y).\n",
        )
        .unwrap();
        let report = optimize_program(&program).unwrap();
        assert!(stratify_program(&report.program).is_ok());
        assert!(report.changed());
        assert_eq!(report.rules_removed(), 0);
    }
}
