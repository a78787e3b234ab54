//! Compiles validated Datalog rules into executable relational-algebra plans.
//!
//! Every rule becomes a left-deep pipeline: a *scan* of its first body atom,
//! followed by one *join step* per remaining atom, followed by a projection
//! onto the head (left out when it is the identity). Each join step is materialized into a temporary buffer —
//! the paper's "temporarily-materialized n-way join" (Section 5.2). For
//! rules inside a recursive stratum the planner emits one *delta version*
//! per occurrence of a same-stratum relation, realising semi-naïve
//! evaluation; the occurrence marked delta is moved to the front of the
//! pipeline so the (small) delta drives the outer loop.
//!
//! Intermediates carry only *live* columns. After each step a variable is
//! kept while a later positive atom, a constraint not yet applied, a
//! negated atom or the head still reads it; every other bound column is
//! dropped, so a join probes once per distinct binding of what is still
//! needed rather than once per full binding. A join whose outer lost a
//! column may hold duplicate rows and is marked to deduplicate its input
//! (see [`RulePlan::dedup_outer`]). When the head is all distinct
//! variables and nothing else is live after the last step, that step emits
//! the head tuple itself and the lowering needs no projection.

use crate::analysis::stratify_program;
use crate::ast::{AggregateOp, Atom, CmpOp, Program, Rule, Term};
use crate::error::{EngineError, EngineResult};
use crate::ra::nway::NwayStrategy;
use crate::ra::op::{RaOp, RaPipeline};
use std::collections::{HashMap, HashSet};

/// Relation identifier: an index into [`CompiledProgram::relation_names`].
pub type RelId = usize;

/// Which version of a relation a plan step reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionSel {
    /// The accumulated `full` relation.
    Full,
    /// The previous iteration's `delta` relation.
    Delta,
    /// The `full` relation probed through its canonical index by a proper
    /// prefix `[0..k)` of its columns. The canonical index sorts every
    /// version lexicographically, so each such key is a contiguous range of
    /// it and the join builds no index of its own. Only seed plans select
    /// it ([`plan_seed_versions`]), for join steps no fixpoint pipeline
    /// maintains an index for.
    FullPrefix,
}

/// A value source when projecting from an intermediate tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnSource {
    /// Column of the intermediate tuple.
    Col(usize),
    /// A literal constant.
    Const(u32),
}

impl ColumnSource {
    /// The value this source takes in `row`.
    #[inline]
    pub fn resolve(self, row: &[u32]) -> u32 {
        match self {
            ColumnSource::Col(c) => row[c],
            ColumnSource::Const(v) => v,
        }
    }
}

/// A value source when emitting a joined tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmitSource {
    /// Column of the outer (intermediate) tuple.
    Outer(usize),
    /// Column (in original declaration order) of the inner relation's tuple.
    Inner(usize),
}

/// A comparison filter applied to an intermediate tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterStep {
    /// Left operand.
    pub left: ColumnSource,
    /// Operator.
    pub op: CmpOp,
    /// Right operand.
    pub right: ColumnSource,
}

/// The initial scan of a rule's first body atom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanStep {
    /// Relation being scanned.
    pub relation: RelId,
    /// Full or delta version.
    pub version: VersionSel,
    /// `(column, constant)` equality filters from constant arguments.
    pub const_filters: Vec<(usize, u32)>,
    /// `(column, column)` equality filters from repeated variables.
    pub eq_filters: Vec<(usize, usize)>,
    /// Columns kept in the intermediate tuple: one per live variable, in
    /// order of first appearance (head order when the scan is the last
    /// step and emits the head tuple). Never empty: with nothing live, one
    /// column is kept so the row multiplicity survives.
    pub keep_cols: Vec<usize>,
}

/// One hash-join step against an indexed relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinStep {
    /// Inner relation.
    pub relation: RelId,
    /// Full or delta version of the inner relation.
    pub version: VersionSel,
    /// Key columns of the outer (intermediate) tuple, matched positionally
    /// with `inner_key_cols`.
    pub outer_key_cols: Vec<usize>,
    /// Key columns of the inner relation, in original declaration order.
    pub inner_key_cols: Vec<usize>,
    /// Constant filters on inner columns.
    pub inner_const_filters: Vec<(usize, u32)>,
    /// Equality filters between inner columns (repeated variables).
    pub inner_eq_filters: Vec<(usize, usize)>,
    /// How to build the next intermediate tuple: one source per live
    /// variable. Never empty, like [`ScanStep::keep_cols`].
    pub emit: Vec<EmitSource>,
}

/// One anti-join step, lowering a negated body literal: rows of the
/// intermediate survive only when the probe tuple is *absent* from the
/// negated relation's completed full version.
///
/// Range restriction guarantees every negated-atom variable is bound by a
/// positive literal, so the probe is fully ground per row and membership
/// is a point lookup against the HISA index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AntiJoinStep {
    /// The negated relation; always read at [`VersionSel::Full`], after
    /// its (strictly lower) stratum completed.
    pub relation: RelId,
    /// How to build each column of the probe tuple, one entry per column
    /// of the negated relation: an intermediate column or a constant.
    pub probe: Vec<ColumnSource>,
}

/// The post-stratum grouped reduce of an aggregate rule's head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceStep {
    /// The reduction to apply.
    pub op: AggregateOp,
    /// Head column holding the aggregated value; all other head columns
    /// form the group key.
    pub agg_column: usize,
}

/// The executable plan of one rule version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RulePlan {
    /// Index of the source rule in the original program.
    pub rule_index: usize,
    /// Head relation.
    pub head: RelId,
    /// Initial scan.
    pub scan: ScanStep,
    /// Join pipeline (possibly empty for single-atom rules).
    pub joins: Vec<JoinStep>,
    /// One flag per join: whether its outer may hold duplicate rows
    /// because the step before it dropped a bound column.
    pub dedup_outer: Vec<bool>,
    /// Anti-joins from negated literals, applied after every positive join
    /// (all variables bound) and before the head projection.
    pub anti_joins: Vec<AntiJoinStep>,
    /// Filters to apply after the scan (`filters[0]`) and after join `k`
    /// (`filters[k + 1]`).
    pub filters: Vec<Vec<FilterStep>>,
    /// Projection building head tuples from the final intermediate.
    pub head_proj: Vec<ColumnSource>,
    /// Grouped reduce applied to the head-shaped batch, for aggregate
    /// rules (always non-recursive: stratification places their bodies in
    /// strictly lower strata).
    pub reduce: Option<ReduceStep>,
    /// `true` when a constant-vs-constant constraint is statically false and
    /// the rule can never fire.
    pub trivially_empty: bool,
    /// Human-readable source form (for diagnostics and plan dumps).
    pub text: String,
}

impl RulePlan {
    /// Whether the head projection copies the final intermediate through
    /// unchanged: `Col(0), .., Col(n - 1)` over an `n`-column last step.
    pub fn head_proj_is_identity(&self) -> bool {
        let width = self
            .joins
            .last()
            .map_or(self.scan.keep_cols.len(), |join| join.emit.len());
        self.head_proj.len() == width
            && self
                .head_proj
                .iter()
                .enumerate()
                .all(|(i, &source)| source == ColumnSource::Col(i))
    }
}

/// A stratum with its rules compiled into plans.
#[derive(Debug, Clone)]
pub struct CompiledStratum {
    /// Relations defined in this stratum.
    pub relations: Vec<RelId>,
    /// Plans evaluated once, before any fixpoint iteration.
    pub non_recursive: Vec<RulePlan>,
    /// Delta-version plans evaluated inside the fixpoint loop.
    pub recursive: Vec<RulePlan>,
    /// Whether the stratum needs a fixpoint loop at all.
    pub is_recursive: bool,
    /// Indices into [`CompiledProgram::rules`] of the stratum's rules with
    /// a body (ground facts are collected into [`CompiledProgram::facts`]).
    /// A re-run plans their seed versions from these
    /// ([`plan_seed_versions`]).
    pub rule_indices: Vec<usize>,
}

/// A fully compiled program.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Relation names, indexed by [`RelId`].
    pub relation_names: Vec<String>,
    /// Relation arities, indexed by [`RelId`].
    pub arities: Vec<usize>,
    /// Which relations are inputs.
    pub inputs: Vec<bool>,
    /// Which relations are outputs.
    pub outputs: Vec<bool>,
    /// Ground facts stated directly in the program text.
    pub facts: Vec<(RelId, Vec<u32>)>,
    /// Strata in evaluation order.
    pub strata: Vec<CompiledStratum>,
    /// The rules the plans were compiled from, in program order.
    pub rules: Vec<Rule>,
}

impl CompiledProgram {
    /// Looks up a relation id by name.
    pub fn relation_id(&self, name: &str) -> Option<RelId> {
        self.relation_names.iter().position(|n| n == name)
    }
}

/// One stratum's rule plans lowered to operator pipelines.
#[derive(Debug, Clone)]
pub struct LoweredStratum {
    /// Pipelines evaluated once, before any fixpoint iteration.
    pub non_recursive: Vec<RaPipeline>,
    /// Delta-version pipelines evaluated inside the fixpoint loop.
    pub recursive: Vec<RaPipeline>,
}

/// Lowers one rule plan into an executable [`RaPipeline`] under the given
/// n-way strategy.
///
/// The temporarily-materialized strategy becomes `Scan → HashJoin* →
/// AntiJoin* [→ Project] [→ Reduce]`, with the `Project` left out when it
/// is the identity (the last step already emits the head tuple); the
/// fused strategy becomes `Scan → FusedJoin [→ Reduce]` (the fused kernel
/// produces head tuples directly). Rules with negated literals always take
/// the materialized lowering — the anti-join probes pre-projection
/// intermediate columns, which the fused kernel never materializes. A
/// trivially-empty plan lowers to an empty pipeline, which the executor
/// treats as deriving nothing.
pub fn lower_rule_plan(plan: &RulePlan, strategy: NwayStrategy) -> RaPipeline {
    let strategy = if plan.anti_joins.is_empty() {
        strategy
    } else {
        NwayStrategy::TemporarilyMaterialized
    };
    let mut ops = Vec::new();
    if !plan.trivially_empty {
        ops.push(RaOp::Scan {
            step: plan.scan.clone(),
            filters: plan.filters[0].clone(),
        });
        match strategy {
            NwayStrategy::TemporarilyMaterialized => {
                for (k, join) in plan.joins.iter().enumerate() {
                    ops.push(RaOp::HashJoin {
                        step: join.clone(),
                        filters: plan.filters[k + 1].clone(),
                        dedup_outer: plan.dedup_outer[k],
                    });
                }
                for step in &plan.anti_joins {
                    ops.push(RaOp::AntiJoin { step: step.clone() });
                }
                if !plan.head_proj_is_identity() {
                    ops.push(RaOp::Project {
                        columns: plan.head_proj.clone(),
                    });
                }
            }
            NwayStrategy::FusedNestedLoop => {
                ops.push(RaOp::FusedJoin {
                    levels: plan
                        .joins
                        .iter()
                        .enumerate()
                        .map(|(k, join)| (join.clone(), plan.filters[k + 1].clone()))
                        .collect(),
                    head_proj: plan.head_proj.clone(),
                });
            }
        }
        if let Some(reduce) = plan.reduce {
            // The reduce consumes the head-shaped batch, so it composes
            // with both n-way strategies.
            ops.push(RaOp::Reduce {
                op: reduce.op,
                agg_column: reduce.agg_column,
            });
        }
    }
    RaPipeline {
        head: plan.head,
        ops,
        text: plan.text.clone(),
    }
}

/// Lowers every rule plan of a compiled program, preserving the stratum
/// structure and evaluation order.
pub fn lower_program(compiled: &CompiledProgram, strategy: NwayStrategy) -> Vec<LoweredStratum> {
    compiled
        .strata
        .iter()
        .map(|stratum| LoweredStratum {
            non_recursive: stratum
                .non_recursive
                .iter()
                .map(|p| lower_rule_plan(p, strategy))
                .collect(),
            recursive: stratum
                .recursive
                .iter()
                .map(|p| lower_rule_plan(p, strategy))
                .collect(),
        })
        .collect()
}

/// The `(relation, key columns)` of every full-version index the lowered
/// pipelines probe: the indices a from-scratch run builds and every later
/// merge keeps up to date.
pub fn full_probe_keys(lowered: &[LoweredStratum]) -> HashSet<(RelId, Vec<usize>)> {
    lowered
        .iter()
        .flat_map(|stratum| stratum.non_recursive.iter().chain(&stratum.recursive))
        .flat_map(|pipeline| &pipeline.ops)
        .flat_map(|op| match op {
            RaOp::HashJoin { step, .. } => vec![step],
            RaOp::FusedJoin { levels, .. } => levels.iter().map(|(step, _)| step).collect(),
            _ => Vec::new(),
        })
        .filter(|step| step.version == VersionSel::Full)
        .map(|step| (step.relation, step.inner_key_cols.clone()))
        .collect()
}

/// One seed version of a rule: the rule with a single positive occurrence
/// of a lower-stratum relation reading that relation's delta (its rows
/// grown since the last completed fixpoint) and every other atom reading
/// full.
#[derive(Debug, Clone)]
pub struct SeedPlan {
    /// The lower-stratum relation whose occurrence reads its delta.
    pub delta: RelId,
    /// The rule version.
    pub plan: RulePlan,
}

/// Plans the seed versions of a stratum's rules: one per rule and positive
/// occurrence of a lower-stratum relation. Run once over the grown lower
/// relations' deltas, they derive exactly the head tuples whose
/// derivation reads at least one grown lower tuple.
///
/// Each seed takes one of three plans, and none builds a full-version
/// index that a from-scratch run lacks:
///
/// * **Delta-first over maintained indices.** It leads with its delta atom
///   when every full index that order probes is in `probed` (see
///   [`full_probe_keys`]), so it reuses indices the fixpoint maintains
///   anyway.
/// * **Delta-first over a canonical prefix.** A full join whose key is not
///   in `probed` but is a proper prefix `[0..k)` of the relation's columns
///   reads the canonical index's sort order instead
///   ([`VersionSel::FullPrefix`]): O(log |full|) per delta row and no
///   index built. `Reach(x, y) :- Edge(x, z), Reach(z, y)` seeds this way.
/// * **Scan-first fallback.** Otherwise it scans a full atom sharing a
///   variable with the delta atom and joins the delta right after it: the
///   delta's index is built on the small delta and dropped with it, rather
///   than a new full-version index that every later copy-on-write detach
///   would copy and every merge rewrite. This costs O(|full|) per seed.
///
/// # Errors
///
/// Returns [`EngineError::Validation`] for rules the planner rejects.
pub fn plan_seed_versions(
    compiled: &CompiledProgram,
    stratum: usize,
    probed: &HashSet<(RelId, Vec<usize>)>,
) -> EngineResult<Vec<SeedPlan>> {
    let id_of: HashMap<&str, RelId> = compiled
        .relation_names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let own = &compiled.strata[stratum].relations;
    let mut seeds = Vec::new();
    for &rule_index in &compiled.strata[stratum].rule_indices {
        let rule = &compiled.rules[rule_index];
        let positives: Vec<&Atom> = rule.positive_atoms().collect();
        for (occ, atom) in positives.iter().enumerate() {
            let delta = id_of[atom.relation.as_str()];
            if own.contains(&delta) {
                continue;
            }
            // Only the leading scan reads the delta: every join reads full.
            let mut delta_first = plan_rule(rule, rule_index, Some(occ), &[occ], &id_of)?;
            let mut covered = true;
            for join in &mut delta_first.joins {
                let key = &join.inner_key_cols;
                if key.is_empty() || probed.contains(&(join.relation, key.clone())) {
                    continue;
                }
                let prefix = key.len() < compiled.arities[join.relation]
                    && key.iter().copied().eq(0..key.len());
                if prefix {
                    join.version = VersionSel::FullPrefix;
                } else {
                    covered = false;
                }
            }
            let mut plan = if covered {
                delta_first
            } else {
                let shares_var = |i: &usize| {
                    positives[*i]
                        .variables()
                        .any(|v| atom.variables().any(|w| w == v))
                };
                let others = || (0..positives.len()).filter(|&i| i != occ);
                let partner = others()
                    .find(shares_var)
                    .or_else(|| others().next())
                    .expect("a delta-first plan with a join has another atom");
                plan_rule(rule, rule_index, Some(occ), &[partner, occ], &id_of)?
            };
            plan.text = format!("{rule}   [seed: delta at body atom {occ}]");
            seeds.push(SeedPlan { delta, plan });
        }
    }
    Ok(seeds)
}

/// Compiles a program: validates, stratifies, and plans every rule.
///
/// # Errors
///
/// Returns [`EngineError::Validation`] for structurally invalid programs
/// (see [`crate::analysis::stratify_program`]) and for constructs the engine does
/// not support.
pub fn compile(program: &Program) -> EngineResult<CompiledProgram> {
    let stratified = stratify_program(program)?;
    let id_of: HashMap<&str, RelId> = stratified
        .relation_names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();

    let mut facts = Vec::new();
    let mut strata = Vec::new();
    for stratum in &stratified.strata {
        let stratum_rels: Vec<RelId> = stratum.relations.clone();
        let mut non_recursive = Vec::new();
        let mut recursive = Vec::new();
        let mut rule_indices = Vec::new();
        for &rule_index in &stratum.rule_indices {
            let rule = &program.rules[rule_index];
            if rule.body.is_empty() {
                // Ground fact.
                let tuple: Vec<u32> = rule
                    .head
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Const(c) => Ok(*c),
                        Term::Var(v) => Err(EngineError::Validation {
                            message: format!("fact {} has unbound variable {v}", rule.head),
                        }),
                    })
                    .collect::<EngineResult<_>>()?;
                facts.push((id_of[rule.head.relation.as_str()], tuple));
                continue;
            }
            rule_indices.push(rule_index);
            // Delta versions are generated per *positive* same-stratum
            // occurrence; stratification already guarantees negated and
            // aggregated bodies live in strictly lower strata.
            let recursive_occurrences: Vec<usize> = rule
                .positive_atoms()
                .enumerate()
                .filter(|(_, atom)| stratum_rels.contains(&id_of[atom.relation.as_str()]))
                .map(|(i, _)| i)
                .collect();
            if recursive_occurrences.is_empty() {
                non_recursive.push(plan_rule(rule, rule_index, None, &[0], &id_of)?);
            } else {
                for &occ in &recursive_occurrences {
                    recursive.push(plan_rule(rule, rule_index, Some(occ), &[occ], &id_of)?);
                }
            }
        }
        strata.push(CompiledStratum {
            relations: stratum_rels,
            non_recursive,
            recursive,
            is_recursive: stratum.recursive,
            rule_indices,
        });
    }

    Ok(CompiledProgram {
        relation_names: stratified.relation_names,
        arities: stratified.arities,
        inputs: stratified.inputs,
        outputs: stratified.outputs,
        facts,
        strata,
        rules: program.rules.clone(),
    })
}

/// Plans one rule version. `delta_occurrence` names the index (into the
/// rule's *positive* body atoms) that reads the delta relation (or `None`
/// for the all-full version); `lead` names the positive atoms evaluated
/// first, in order (a fixpoint version leads with its delta atom).
fn plan_rule(
    rule: &Rule,
    rule_index: usize,
    delta_occurrence: Option<usize>,
    lead: &[usize],
    id_of: &HashMap<&str, RelId>,
) -> EngineResult<RulePlan> {
    // Positive literals drive the scan/join pipeline; negated literals
    // become anti-joins once every variable is bound.
    let positives: Vec<&Atom> = rule.positive_atoms().collect();
    if positives.is_empty() {
        return Err(EngineError::Validation {
            message: format!("rule `{rule}` has no positive body literal to ground it"),
        });
    }
    // Decide atom evaluation order: the lead atoms first, then a greedy
    // order preferring atoms that share a variable with what is already
    // bound.
    let n_atoms = positives.len();
    let mut order: Vec<usize> = Vec::with_capacity(n_atoms);
    let mut remaining: Vec<usize> = (0..n_atoms).collect();
    let mut bound_vars: Vec<String> = Vec::new();
    let collect_vars = |atom: &Atom, bound: &mut Vec<String>| {
        for v in atom.variables() {
            if !bound.iter().any(|b| b == v) {
                bound.push(v.to_string());
            }
        }
    };
    for &atom_idx in lead {
        remaining.retain(|&i| i != atom_idx);
        collect_vars(positives[atom_idx], &mut bound_vars);
        order.push(atom_idx);
    }
    while !remaining.is_empty() {
        let pick = remaining
            .iter()
            .position(|&i| {
                positives[i]
                    .variables()
                    .any(|v| bound_vars.iter().any(|b| b == v))
            })
            .unwrap_or(0);
        let atom_idx = remaining.remove(pick);
        collect_vars(positives[atom_idx], &mut bound_vars);
        order.push(atom_idx);
    }
    let steps: Vec<&Atom> = order.iter().map(|&i| positives[i]).collect();

    // The last step emits the head tuple itself when the head is all
    // distinct variables (and nothing else is live by then).
    let head_vars: Vec<&str> = rule.head.variables().collect();
    let head_is_distinct_vars = head_vars.len() == rule.head.terms.len()
        && head_vars
            .iter()
            .enumerate()
            .all(|(i, v)| !head_vars[..i].contains(v));
    let head_order_at = |step: usize| {
        (head_is_distinct_vars && step + 1 == steps.len()).then_some(head_vars.as_slice())
    };

    // Walk the pipeline, tracking which variable each intermediate column
    // holds (`None` for the dummy column of an atom that binds none).
    let mut columns: Vec<Option<&str>> = Vec::new();
    let mut applied = vec![false; rule.constraints.len()];
    let (scan, mut outer_narrowed) = plan_scan(
        steps[0],
        version_for(order[0], delta_occurrence),
        id_of,
        &|var| is_live(rule, &steps[1..], &applied, var),
        head_order_at(0),
        &mut columns,
    );

    let mut joins = Vec::new();
    let mut dedup_outer = Vec::new();
    let mut filters: Vec<Vec<FilterStep>> = vec![Vec::new()];
    let mut trivially_empty = false;
    collect_applicable_filters(
        rule,
        &columns,
        &mut applied,
        &mut filters[0],
        &mut trivially_empty,
    );

    for k in 1..steps.len() {
        let (join, narrowed) = plan_join(
            steps[k],
            version_for(order[k], delta_occurrence),
            id_of,
            &|var| is_live(rule, &steps[k + 1..], &applied, var),
            head_order_at(k),
            &mut columns,
        );
        joins.push(join);
        dedup_outer.push(outer_narrowed);
        outer_narrowed = narrowed;
        let mut step_filters = Vec::new();
        collect_applicable_filters(
            rule,
            &columns,
            &mut applied,
            &mut step_filters,
            &mut trivially_empty,
        );
        filters.push(step_filters);
    }

    // Anti-joins: each negated literal probes the intermediate against the
    // negated relation's full version. Validation guarantees every
    // variable is bound by now, and liveness kept each one.
    let anti_joins: Vec<AntiJoinStep> = rule
        .negative_atoms()
        .map(|atom| AntiJoinStep {
            relation: id_of[atom.relation.as_str()],
            probe: atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => ColumnSource::Const(*c),
                    Term::Var(v) => ColumnSource::Col(
                        column_of(&columns, v)
                            .expect("negated-atom variable bound (checked by validation)"),
                    ),
                })
                .collect(),
        })
        .collect();

    // Head projection.
    let head_proj: Vec<ColumnSource> = rule
        .head
        .terms
        .iter()
        .map(|t| match t {
            Term::Const(c) => ColumnSource::Const(*c),
            Term::Var(v) => ColumnSource::Col(
                column_of(&columns, v).expect("head variable bound (checked by validation)"),
            ),
        })
        .collect();

    let reduce = rule.aggregate.as_ref().map(|agg| ReduceStep {
        op: agg.op,
        agg_column: agg.column,
    });

    Ok(RulePlan {
        rule_index,
        head: id_of[rule.head.relation.as_str()],
        scan,
        joins,
        dedup_outer,
        anti_joins,
        filters,
        head_proj,
        reduce,
        trivially_empty,
        text: format!(
            "{rule}{}",
            match delta_occurrence {
                Some(d) => format!("   [delta at body atom {d}]"),
                None => String::new(),
            }
        ),
    })
}

fn version_for(atom_idx: usize, delta_occurrence: Option<usize>) -> VersionSel {
    if delta_occurrence == Some(atom_idx) {
        VersionSel::Delta
    } else {
        VersionSel::Full
    }
}

/// Whether `var` is still read after a pipeline step: by a `later`
/// positive atom, a constraint not yet `applied`, a negated atom, or the
/// head (which includes an aggregate's variable).
fn is_live(rule: &Rule, later: &[&Atom], applied: &[bool], var: &str) -> bool {
    let in_atom = |atom: &Atom| atom.variables().any(|v| v == var);
    later.iter().any(|atom| in_atom(atom))
        || rule.negative_atoms().any(in_atom)
        || in_atom(&rule.head)
        || rule
            .constraints
            .iter()
            .zip(applied)
            .any(|(c, &done)| !done && [&c.left, &c.right].iter().any(|t| t.as_var() == Some(var)))
}

/// The intermediate column holding `var`, if it is bound and live.
fn column_of(columns: &[Option<&str>], var: &str) -> Option<usize> {
    columns.iter().position(|&c| c == Some(var))
}

/// Keeps the live entries of a step's bound `(variable, source)` pairs, in
/// binding order — or in `head_order` when one is given and the live
/// variables are exactly the head's — and never none: with nothing live,
/// the first pair stays so the row multiplicity survives. Records the
/// kept variables as the new intermediate `columns` and returns the kept
/// sources plus whether a bound column was dropped.
fn keep_live<'r, S: Copy>(
    bound: &[(Option<&'r str>, S)],
    live: &dyn Fn(&str) -> bool,
    head_order: Option<&[&'r str]>,
    columns: &mut Vec<Option<&'r str>>,
) -> (Vec<S>, bool) {
    let mut kept: Vec<(Option<&'r str>, S)> = bound
        .iter()
        .copied()
        .filter(|&(var, _)| var.is_some_and(live))
        .collect();
    if let Some(head) = head_order.filter(|head| head.len() == kept.len()) {
        let by_head: Option<Vec<_>> = head
            .iter()
            .map(|&h| kept.iter().copied().find(|&(var, _)| var == Some(h)))
            .collect();
        if let Some(by_head) = by_head {
            kept = by_head;
        }
    }
    if kept.is_empty() {
        kept.extend(bound.first().copied());
    }
    *columns = kept.iter().map(|&(var, _)| var).collect();
    let dropped = kept.len() < bound.len();
    (
        kept.into_iter().map(|(_, source)| source).collect(),
        dropped,
    )
}

fn plan_scan<'r>(
    atom: &'r Atom,
    version: VersionSel,
    id_of: &HashMap<&str, RelId>,
    live: &dyn Fn(&str) -> bool,
    head_order: Option<&[&'r str]>,
    columns: &mut Vec<Option<&'r str>>,
) -> (ScanStep, bool) {
    let mut const_filters = Vec::new();
    let mut eq_filters = Vec::new();
    let mut bound: Vec<(Option<&str>, usize)> = Vec::new();
    let mut first_occurrence: HashMap<&str, usize> = HashMap::new();
    for (col, term) in atom.terms.iter().enumerate() {
        match term {
            Term::Const(c) => const_filters.push((col, *c)),
            Term::Var(v) => match first_occurrence.get(v.as_str()) {
                Some(&first) => eq_filters.push((first, col)),
                None => {
                    first_occurrence.insert(v, col);
                    bound.push((Some(v), col));
                }
            },
        }
    }
    if bound.is_empty() {
        // An all-constant atom (e.g. `R(1) :- E(2, 3).`) binds nothing;
        // a dummy column keeps its matched-row count.
        bound.push((None, 0));
    }
    let (keep_cols, dropped) = keep_live(&bound, live, head_order, columns);
    let step = ScanStep {
        relation: id_of[atom.relation.as_str()],
        version,
        const_filters,
        eq_filters,
        keep_cols,
    };
    (step, dropped)
}

fn plan_join<'r>(
    atom: &'r Atom,
    version: VersionSel,
    id_of: &HashMap<&str, RelId>,
    live: &dyn Fn(&str) -> bool,
    head_order: Option<&[&'r str]>,
    columns: &mut Vec<Option<&'r str>>,
) -> (JoinStep, bool) {
    let mut outer_key_cols = Vec::new();
    let mut inner_key_cols = Vec::new();
    let mut inner_const_filters = Vec::new();
    let mut inner_eq_filters = Vec::new();
    let mut bound: Vec<(Option<&str>, EmitSource)> = columns
        .iter()
        .enumerate()
        .map(|(c, &var)| (var, EmitSource::Outer(c)))
        .collect();
    let mut first_occurrence: HashMap<&str, usize> = HashMap::new();
    for (col, term) in atom.terms.iter().enumerate() {
        match term {
            Term::Const(c) => inner_const_filters.push((col, *c)),
            Term::Var(v) => {
                if let Some(&first) = first_occurrence.get(v.as_str()) {
                    // Repeated variable within the atom.
                    inner_eq_filters.push((first, col));
                    continue;
                }
                first_occurrence.insert(v, col);
                if let Some(outer_col) = column_of(columns, v) {
                    outer_key_cols.push(outer_col);
                    inner_key_cols.push(col);
                } else {
                    bound.push((Some(v), EmitSource::Inner(col)));
                }
            }
        }
    }
    let (emit, dropped) = keep_live(&bound, live, head_order, columns);
    let step = JoinStep {
        relation: id_of[atom.relation.as_str()],
        version,
        outer_key_cols,
        inner_key_cols,
        inner_const_filters,
        inner_eq_filters,
        emit,
    };
    (step, dropped)
}

fn collect_applicable_filters(
    rule: &Rule,
    columns: &[Option<&str>],
    applied: &mut [bool],
    out: &mut Vec<FilterStep>,
    trivially_empty: &mut bool,
) {
    for (i, c) in rule.constraints.iter().enumerate() {
        if applied[i] {
            continue;
        }
        let resolve = |t: &Term| -> Option<ColumnSource> {
            match t {
                Term::Const(v) => Some(ColumnSource::Const(*v)),
                Term::Var(v) => column_of(columns, v).map(ColumnSource::Col),
            }
        };
        if let (Some(left), Some(right)) = (resolve(&c.left), resolve(&c.right)) {
            applied[i] = true;
            if let (ColumnSource::Const(l), ColumnSource::Const(r)) = (left, right) {
                if !c.op.eval(l, r) {
                    *trivially_empty = true;
                }
                continue;
            }
            out.push(FilterStep {
                left,
                op: c.op,
                right,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn compile_src(src: &str) -> CompiledProgram {
        compile(&parse_program(src).unwrap()).unwrap()
    }

    const REACH: &str = r"
        .decl Edge(x: number, y: number)
        .input Edge
        .decl Reach(x: number, y: number)
        .output Reach
        Reach(x, y) :- Edge(x, y).
        Reach(x, y) :- Edge(x, z), Reach(z, y).
    ";

    #[test]
    fn reach_plans_have_one_delta_version_for_the_recursive_rule() {
        let c = compile_src(REACH);
        let reach_stratum = c
            .strata
            .iter()
            .find(|s| s.relations.contains(&c.relation_id("Reach").unwrap()))
            .unwrap();
        assert!(reach_stratum.is_recursive);
        assert_eq!(reach_stratum.non_recursive.len(), 1);
        assert_eq!(reach_stratum.recursive.len(), 1);
        let rec = &reach_stratum.recursive[0];
        // The delta atom (Reach) must drive the scan.
        assert_eq!(rec.scan.relation, c.relation_id("Reach").unwrap());
        assert_eq!(rec.scan.version, VersionSel::Delta);
        assert_eq!(rec.joins.len(), 1);
        assert_eq!(rec.joins[0].relation, c.relation_id("Edge").unwrap());
        // Join on z: Reach(z, y) delta scanned (keeps z at col 0, y at col 1),
        // joined with Edge(x, z) on Edge's column 1.
        assert_eq!(rec.joins[0].outer_key_cols, vec![0]);
        assert_eq!(rec.joins[0].inner_key_cols, vec![1]);
    }

    #[test]
    fn sg_rule_two_produces_three_delta_versions_total_one_per_occurrence() {
        let c = compile_src(
            r"
            .decl Edge(x: number, y: number)
            .decl SG(x: number, y: number)
            .input Edge
            .output SG
            SG(x, y) :- Edge(p, x), Edge(p, y), x != y.
            SG(x, y) :- Edge(a, x), SG(a, b), Edge(b, y), x != y.
        ",
        );
        let sg = c.relation_id("SG").unwrap();
        let stratum = c.strata.iter().find(|s| s.relations.contains(&sg)).unwrap();
        // Rule 1 has no SG occurrence: non-recursive. Rule 2 has exactly one
        // SG occurrence: one delta version.
        assert_eq!(stratum.non_recursive.len(), 1);
        assert_eq!(stratum.recursive.len(), 1);
        let rec = &stratum.recursive[0];
        assert_eq!(rec.scan.version, VersionSel::Delta);
        assert_eq!(rec.scan.relation, sg);
        assert_eq!(
            rec.joins.len(),
            2,
            "temp-materialized into two binary joins"
        );
        // The x != y constraint is applied only once all variables are bound,
        // i.e. after the second join.
        assert!(rec.filters[0].is_empty());
        assert!(rec.filters[1].is_empty());
        assert_eq!(rec.filters[2].len(), 1);
    }

    #[test]
    fn self_join_in_sg_rule_one_joins_edge_with_edge_on_parent() {
        let c = compile_src(
            r"
            .decl Edge(x: number, y: number)
            .decl SG(x: number, y: number)
            .input Edge
            .output SG
            SG(x, y) :- Edge(p, x), Edge(p, y), x != y.
        ",
        );
        let stratum = c
            .strata
            .iter()
            .find(|s| s.relations.contains(&c.relation_id("SG").unwrap()))
            .unwrap();
        let plan = &stratum.non_recursive[0];
        assert_eq!(plan.joins.len(), 1);
        assert_eq!(plan.joins[0].outer_key_cols, vec![0]); // p
        assert_eq!(plan.joins[0].inner_key_cols, vec![0]); // p
        assert_eq!(plan.filters[1].len(), 1); // x != y after the join
        assert_eq!(plan.head_proj.len(), 2);
    }

    #[test]
    fn constants_become_filters_and_head_constants_project() {
        let c = compile_src(
            r"
            .decl E(x: number, y: number)
            .decl R(x: number, y: number)
            .input E
            .output R
            R(x, 7) :- E(x, 3), E(x, x).
        ",
        );
        let stratum = c
            .strata
            .iter()
            .find(|s| s.relations.contains(&c.relation_id("R").unwrap()))
            .unwrap();
        let plan = &stratum.non_recursive[0];
        assert_eq!(plan.scan.const_filters, vec![(1, 3)]);
        // Second atom E(x, x): x is bound, so column 0 joins and column 1 must
        // equal it; the planner expresses that as a key on col 0 plus an
        // eq-filter between the two inner columns... or as a repeated-variable
        // filter, depending on binding order.
        assert_eq!(plan.joins[0].inner_key_cols, vec![0]);
        assert_eq!(plan.joins[0].inner_eq_filters, vec![(0, 1)]);
        assert_eq!(plan.head_proj[1], ColumnSource::Const(7));
    }

    #[test]
    fn ground_facts_are_collected_not_planned() {
        let c = compile_src(
            r"
            .decl E(x: number, y: number)
            .decl R(x: number)
            .output R
            E(1, 2).
            E(2, 3).
            R(x) :- E(x, 3).
        ",
        );
        assert_eq!(c.facts.len(), 2);
        assert_eq!(c.facts[0].1, vec![1, 2]);
        let plans = c
            .strata
            .iter()
            .map(|s| s.non_recursive.len() + s.recursive.len());
        assert_eq!(plans.sum::<usize>(), 1);
    }

    #[test]
    fn statically_false_constraint_marks_plan_trivially_empty() {
        let c = compile_src(
            r"
            .decl E(x: number)
            .decl R(x: number)
            .input E
            .output R
            R(x) :- E(x), 1 > 2.
        ",
        );
        let stratum = c
            .strata
            .iter()
            .find(|s| s.relations.contains(&c.relation_id("R").unwrap()))
            .unwrap();
        assert!(stratum.non_recursive[0].trivially_empty);
    }

    #[test]
    fn cross_product_rule_gets_empty_join_key() {
        let c = compile_src(
            r"
            .decl A(x: number)
            .decl B(y: number)
            .decl R(x: number, y: number)
            .input A
            .input B
            .output R
            R(x, y) :- A(x), B(y).
        ",
        );
        let stratum = c
            .strata
            .iter()
            .find(|s| s.relations.contains(&c.relation_id("R").unwrap()))
            .unwrap();
        let plan = &stratum.non_recursive[0];
        assert!(plan.joins[0].outer_key_cols.is_empty());
        assert!(plan.joins[0].inner_key_cols.is_empty());
    }

    #[test]
    fn lowering_produces_scan_join_project_for_materialized() {
        // REACH's recursive join emits `[x, y]` in head order, so the
        // identity projection is left out.
        let c = compile_src(REACH);
        let stratum = c.strata.iter().find(|s| s.is_recursive).unwrap();
        let plan = &stratum.recursive[0];
        assert_eq!(
            plan.joins[0].emit,
            vec![EmitSource::Inner(0), EmitSource::Outer(1)]
        );
        assert!(plan.head_proj_is_identity());
        let pipeline = lower_rule_plan(plan, NwayStrategy::TemporarilyMaterialized);
        assert_eq!(pipeline.head, plan.head);
        assert_eq!(pipeline.ops.len(), 2);
        assert!(matches!(pipeline.ops[0], RaOp::Scan { .. }));
        assert!(matches!(pipeline.ops[1], RaOp::HashJoin { .. }));

        // A head constant needs a real projection after the join.
        let c = compile_src(
            r"
            .decl Edge(x: number, y: number)
            .decl Tagged(x: number, t: number)
            .input Edge
            .output Tagged
            Tagged(x, 9) :- Edge(x, z), Edge(z, y).
        ",
        );
        let plan = &c.strata.last().unwrap().non_recursive[0];
        let pipeline = lower_rule_plan(plan, NwayStrategy::TemporarilyMaterialized);
        assert_eq!(pipeline.ops.len(), 3);
        assert!(matches!(pipeline.ops[0], RaOp::Scan { .. }));
        assert!(matches!(pipeline.ops[1], RaOp::HashJoin { .. }));
        assert!(matches!(pipeline.ops[2], RaOp::Project { .. }));
    }

    /// `SG(x, y) :- Edge(a, x), SG(a, b), Edge(b, y), x != y.` with the
    /// delta `SG(a, b)` scanned first: `a` dies after the first join, and
    /// the second join emits the head tuple.
    #[test]
    fn sg_recursive_plan_carries_only_live_columns() {
        let c = compile_src(
            r"
            .decl Edge(x: number, y: number)
            .decl SG(x: number, y: number)
            .input Edge
            .output SG
            SG(x, y) :- Edge(a, x), SG(a, b), Edge(b, y), x != y.
        ",
        );
        let sg = c.relation_id("SG").unwrap();
        let stratum = c.strata.iter().find(|s| s.relations.contains(&sg)).unwrap();
        let rec = &stratum.recursive[0];
        // Scan SG(a, b) keeps [a, b]; both are read by a later atom.
        assert_eq!(rec.scan.keep_cols, vec![0, 1]);
        // Join Edge(a, x) on a, emitting [b, x].
        assert_eq!(rec.joins[0].outer_key_cols, vec![0]);
        assert_eq!(
            rec.joins[0].emit,
            vec![EmitSource::Outer(1), EmitSource::Inner(1)]
        );
        // Join Edge(b, y) on b, emitting [x, y] in head order.
        assert_eq!(rec.joins[1].outer_key_cols, vec![0]);
        assert_eq!(
            rec.joins[1].emit,
            vec![EmitSource::Outer(1), EmitSource::Inner(1)]
        );
        assert_eq!(
            rec.filters[2],
            vec![FilterStep {
                left: ColumnSource::Col(0),
                op: CmpOp::Ne,
                right: ColumnSource::Col(1),
            }]
        );
        // Only the second join's outer lost a column.
        assert_eq!(rec.dedup_outer, vec![false, true]);
        let pipeline = lower_rule_plan(rec, NwayStrategy::TemporarilyMaterialized);
        let dedup: Vec<bool> = pipeline
            .ops
            .iter()
            .filter_map(|op| match op {
                RaOp::HashJoin { dedup_outer, .. } => Some(*dedup_outer),
                _ => None,
            })
            .collect();
        assert_eq!(dedup, vec![false, true]);
        assert!(!pipeline
            .ops
            .iter()
            .any(|op| matches!(op, RaOp::Project { .. })));
    }

    #[test]
    fn constraint_variables_stay_live_until_the_filter_consumes_them() {
        let c = compile_src(
            r"
            .decl A(x: number, y: number)
            .decl B(x: number, w: number)
            .decl C(x: number, v: number)
            .decl R(x: number)
            .input A
            .input B
            .input C
            .output R
            R(x) :- A(x, y), B(x, w), y < w, C(x, v).
        ",
        );
        let plan = &c.strata.last().unwrap().non_recursive[0];
        // After B, y and w are still read by the pending constraint...
        assert_eq!(
            plan.joins[0].emit,
            vec![
                EmitSource::Outer(0),
                EmitSource::Outer(1),
                EmitSource::Inner(1)
            ]
        );
        assert_eq!(
            plan.filters[1],
            vec![FilterStep {
                left: ColumnSource::Col(1),
                op: CmpOp::Lt,
                right: ColumnSource::Col(2),
            }]
        );
        // ...which consumes them, so C's join keeps only x (the head).
        assert_eq!(plan.joins[1].emit, vec![EmitSource::Outer(0)]);
        assert_eq!(plan.dedup_outer, vec![false, false]);
        assert!(plan.head_proj_is_identity());
    }

    #[test]
    fn negated_variables_stay_live_and_the_anti_join_rule_keeps_its_project() {
        let c = compile_src(
            r"
            .decl A(x: number, y: number)
            .decl B(y: number, z: number)
            .decl N(z: number)
            .decl R(x: number)
            .input A
            .input B
            .input N
            .output R
            R(x) :- A(x, y), B(y, z), !N(z).
        ",
        );
        let plan = &c.strata.last().unwrap().non_recursive[0];
        // y dies at the join; z survives for the negated atom.
        assert_eq!(
            plan.joins[0].emit,
            vec![EmitSource::Outer(0), EmitSource::Inner(1)]
        );
        assert_eq!(plan.anti_joins[0].probe, vec![ColumnSource::Col(1)]);
        assert_eq!(plan.head_proj, vec![ColumnSource::Col(0)]);
        let pipeline = lower_rule_plan(plan, NwayStrategy::TemporarilyMaterialized);
        assert_eq!(pipeline.ops.len(), 4);
        assert!(matches!(pipeline.ops[2], RaOp::AntiJoin { .. }));
        assert!(matches!(pipeline.ops[3], RaOp::Project { .. }));
    }

    #[test]
    fn aggregate_variable_stays_live_through_the_join() {
        let c = compile_src(
            r"
            .decl A(x: number, y: number, d: number)
            .decl B(y: number)
            .decl S(x: number, d: number)
            .input A
            .input B
            .output S
            S(x, sum(d)) :- A(x, y, d), B(y).
        ",
        );
        let plan = &c.strata.last().unwrap().non_recursive[0];
        assert_eq!(plan.scan.keep_cols, vec![0, 1, 2]);
        assert_eq!(
            plan.joins[0].emit,
            vec![EmitSource::Outer(0), EmitSource::Outer(2)]
        );
        let pipeline = lower_rule_plan(plan, NwayStrategy::TemporarilyMaterialized);
        assert_eq!(pipeline.ops.len(), 3);
        assert!(matches!(pipeline.ops[1], RaOp::HashJoin { .. }));
        assert!(matches!(pipeline.ops[2], RaOp::Reduce { .. }));
    }

    #[test]
    fn rule_without_live_variables_keeps_one_column_and_still_derives() {
        use crate::engine::{EngineConfig, GpulogEngine};
        use gpulog_device::{profile::DeviceProfile, Device};

        let src = r"
            .decl A(x: number)
            .decl B(x: number)
            .decl R(x: number)
            .input A
            .input B
            .output R
            R(1) :- A(x), B(x).
        ";
        let c = compile_src(src);
        let plan = &c.strata.last().unwrap().non_recursive[0];
        assert_eq!(plan.scan.keep_cols, vec![0]);
        assert_eq!(plan.joins[0].emit, vec![EmitSource::Outer(0)]);
        assert_eq!(plan.head_proj, vec![ColumnSource::Const(1)]);

        let d = Device::with_workers(DeviceProfile::nvidia_h100(), 2);
        for nway in [
            NwayStrategy::TemporarilyMaterialized,
            NwayStrategy::FusedNestedLoop,
        ] {
            let cfg = EngineConfig {
                nway,
                ..EngineConfig::default()
            };
            let mut engine = GpulogEngine::builder(&d)
                .program(src)
                .config(cfg)
                .build()
                .unwrap();
            engine.add_facts("A", [[4u32], [5]]).unwrap();
            engine.add_facts("B", [[5u32], [6]]).unwrap();
            engine.run().unwrap();
            assert_eq!(engine.relation_size("R"), Some(1), "{nway:?}");
            assert!(engine.contains("R", &[1]));
        }
    }

    #[test]
    fn lowering_produces_scan_fused_for_fused_strategy() {
        let c = compile_src(REACH);
        let stratum = c.strata.iter().find(|s| s.is_recursive).unwrap();
        let plan = &stratum.recursive[0];
        let pipeline = lower_rule_plan(plan, NwayStrategy::FusedNestedLoop);
        assert_eq!(pipeline.ops.len(), 2);
        assert!(matches!(pipeline.ops[0], RaOp::Scan { .. }));
        match &pipeline.ops[1] {
            RaOp::FusedJoin { levels, head_proj } => {
                assert_eq!(levels.len(), plan.joins.len());
                assert_eq!(head_proj, &plan.head_proj);
            }
            other => panic!("expected FusedJoin, got {other:?}"),
        }
    }

    #[test]
    fn trivially_empty_plans_lower_to_empty_pipelines() {
        let c = compile_src(
            r"
            .decl E(x: number)
            .decl R(x: number)
            .input E
            .output R
            R(x) :- E(x), 1 > 2.
        ",
        );
        let lowered = lower_program(&c, NwayStrategy::TemporarilyMaterialized);
        let all: Vec<&RaPipeline> = lowered
            .iter()
            .flat_map(|s| s.non_recursive.iter().chain(s.recursive.iter()))
            .collect();
        assert_eq!(all.len(), 1);
        assert!(all[0].is_empty());
    }

    #[test]
    fn lower_program_mirrors_the_stratum_structure() {
        let c = compile_src(REACH);
        let lowered = lower_program(&c, NwayStrategy::TemporarilyMaterialized);
        assert_eq!(lowered.len(), c.strata.len());
        for (stratum, low) in c.strata.iter().zip(&lowered) {
            assert_eq!(stratum.non_recursive.len(), low.non_recursive.len());
            assert_eq!(stratum.recursive.len(), low.recursive.len());
        }
    }

    #[test]
    fn negated_literal_plans_an_anti_join_probe() {
        let c = compile_src(
            r"
            .decl Edge(x: number, y: number)
            .decl Blocked(x: number)
            .decl Reach(x: number, y: number)
            .input Edge
            .input Blocked
            .output Reach
            Reach(x, y) :- Edge(x, y), !Blocked(y).
            Reach(x, y) :- Reach(x, z), Edge(z, y), !Blocked(y).
        ",
        );
        let reach = c.relation_id("Reach").unwrap();
        let blocked = c.relation_id("Blocked").unwrap();
        let stratum = c
            .strata
            .iter()
            .find(|s| s.relations.contains(&reach))
            .unwrap();
        // Negated occurrences never generate delta versions.
        assert_eq!(stratum.non_recursive.len(), 1);
        assert_eq!(stratum.recursive.len(), 1);
        let nonrec = &stratum.non_recursive[0];
        assert_eq!(nonrec.anti_joins.len(), 1);
        assert_eq!(nonrec.anti_joins[0].relation, blocked);
        // Edge(x, y) scanned → columns [x, y]; probe Blocked(y) = Col(1).
        assert_eq!(nonrec.anti_joins[0].probe, vec![ColumnSource::Col(1)]);
        let rec = &stratum.recursive[0];
        assert_eq!(rec.scan.relation, reach);
        assert_eq!(rec.scan.version, VersionSel::Delta);
        assert_eq!(rec.anti_joins.len(), 1);
    }

    #[test]
    fn anti_join_lowering_sits_between_joins_and_project() {
        let c = compile_src(
            r"
            .decl Edge(x: number, y: number)
            .decl Blocked(x: number)
            .decl Reach(x: number)
            .input Edge
            .input Blocked
            .output Reach
            Reach(x) :- Edge(x, y), !Blocked(y).
        ",
        );
        let stratum = c
            .strata
            .iter()
            .find(|s| s.relations.contains(&c.relation_id("Reach").unwrap()))
            .unwrap();
        let plan = &stratum.non_recursive[0];
        let pipeline = lower_rule_plan(plan, NwayStrategy::TemporarilyMaterialized);
        assert!(matches!(pipeline.ops[0], RaOp::Scan { .. }));
        assert!(matches!(pipeline.ops[1], RaOp::AntiJoin { .. }));
        assert!(matches!(pipeline.ops[2], RaOp::Project { .. }));
        // Negation forces the materialized lowering even under the fused
        // strategy: the anti-join probes pre-projection columns.
        let fused = lower_rule_plan(plan, NwayStrategy::FusedNestedLoop);
        assert!(fused
            .ops
            .iter()
            .any(|op| matches!(op, RaOp::AntiJoin { .. })));
        assert!(fused
            .ops
            .iter()
            .all(|op| !matches!(op, RaOp::FusedJoin { .. })));
    }

    #[test]
    fn aggregate_rule_lowers_with_a_trailing_reduce() {
        let c = compile_src(
            r"
            .decl PathLen(x: number, y: number, d: number)
            .decl SP(x: number, y: number, d: number)
            .input PathLen
            .output SP
            SP(x, y, min(d)) :- PathLen(x, y, d).
        ",
        );
        let stratum = c
            .strata
            .iter()
            .find(|s| s.relations.contains(&c.relation_id("SP").unwrap()))
            .unwrap();
        assert!(!stratum.is_recursive, "aggregate rules are non-recursive");
        let plan = &stratum.non_recursive[0];
        assert_eq!(
            plan.reduce,
            Some(ReduceStep {
                op: AggregateOp::Min,
                agg_column: 2
            })
        );
        for strategy in [
            NwayStrategy::TemporarilyMaterialized,
            NwayStrategy::FusedNestedLoop,
        ] {
            let pipeline = lower_rule_plan(plan, strategy);
            match pipeline.ops.last() {
                Some(RaOp::Reduce { op, agg_column }) => {
                    assert_eq!(*op, AggregateOp::Min);
                    assert_eq!(*agg_column, 2);
                }
                other => panic!("expected trailing Reduce, got {other:?}"),
            }
        }
    }

    #[test]
    fn rule_with_only_negative_literals_is_rejected() {
        use crate::ast::ProgramBuilder;
        let p = ProgramBuilder::new()
            .input_relation("B", 1)
            .output_relation("R", 1)
            .rule_with("R", vec![Term::Const(1)], |r| {
                r.body_not("B", vec![Term::Const(1)]);
            })
            .build()
            .unwrap();
        let err = compile(&p).unwrap_err();
        assert!(err.to_string().contains("no positive body literal"));
    }

    /// SG's first rule can lead with the delta edge: its partner `Edge`
    /// probe on column 0 is one the fixpoint maintains. In the recursive
    /// rule, new `Edge(a, x)` rows lead too: they probe `SG` full on
    /// `[0]`, no maintained key but a prefix the canonical order serves.
    /// New `Edge(b, y)` rows would probe `SG` on `[1]`, which nothing
    /// serves, so that seed scans `SG` full and joins the delta right
    /// after.
    #[test]
    fn seed_versions_lead_with_the_delta_only_over_maintained_indices() {
        let c = compile_src(
            r"
            .decl Edge(x: number, y: number)
            .decl SG(x: number, y: number)
            .input Edge
            .output SG
            SG(x, y) :- Edge(p, x), Edge(p, y), x != y.
            SG(x, y) :- Edge(a, x), SG(a, b), Edge(b, y), x != y.
        ",
        );
        let (edge, sg) = (c.relation_id("Edge").unwrap(), c.relation_id("SG").unwrap());
        let stratum = c.strata.iter().position(|s| s.relations == [sg]).unwrap();
        let probed = full_probe_keys(&lower_program(&c, NwayStrategy::TemporarilyMaterialized));
        assert!(probed.contains(&(edge, vec![0])));
        assert!(!probed.iter().any(|(rel, _)| *rel == sg));
        let seeds = plan_seed_versions(&c, stratum, &probed).unwrap();
        // One seed per positive Edge occurrence: two per rule.
        assert_eq!(seeds.len(), 4);
        assert!(seeds.iter().all(|seed| seed.delta == edge));
        for seed in &seeds[..2] {
            assert_eq!(seed.plan.scan.version, VersionSel::Delta);
            assert_eq!(seed.plan.joins[0].version, VersionSel::Full);
        }
        let prefix_first = &seeds[2].plan;
        assert_eq!(
            (prefix_first.scan.relation, prefix_first.scan.version),
            (edge, VersionSel::Delta)
        );
        let steps: Vec<_> = prefix_first
            .joins
            .iter()
            .map(|join| (join.relation, join.version, join.inner_key_cols.clone()))
            .collect();
        assert_eq!(
            steps,
            [
                (sg, VersionSel::FullPrefix, vec![0]),
                (edge, VersionSel::Full, vec![0])
            ]
        );
        let scan_first = &seeds[3].plan;
        assert_eq!(
            (scan_first.scan.relation, scan_first.scan.version),
            (sg, VersionSel::Full)
        );
        assert_eq!(
            (scan_first.joins[0].relation, scan_first.joins[0].version),
            (edge, VersionSel::Delta)
        );
        assert_eq!(
            (scan_first.joins[1].relation, scan_first.joins[1].version),
            (edge, VersionSel::Full)
        );
        for plan in [prefix_first, scan_first] {
            assert!(plan
                .joins
                .iter()
                .filter(|join| join.version == VersionSel::Full)
                .all(|join| probed.contains(&(join.relation, join.inner_key_cols.clone()))));
        }
    }

    #[test]
    fn mutual_recursion_generates_delta_versions_for_both_relations() {
        let c = compile_src(
            r"
            .decl E(x: number, y: number)
            .decl A(x: number, y: number)
            .decl B(x: number, y: number)
            .input E
            .output A
            A(x, y) :- E(x, y).
            A(x, y) :- B(x, z), E(z, y).
            B(x, y) :- A(x, z), E(z, y).
        ",
        );
        let a = c.relation_id("A").unwrap();
        let stratum = c.strata.iter().find(|s| s.relations.contains(&a)).unwrap();
        assert_eq!(stratum.non_recursive.len(), 1);
        assert_eq!(stratum.recursive.len(), 2);
        assert!(stratum
            .recursive
            .iter()
            .all(|p| p.scan.version == VersionSel::Delta));
    }
}
