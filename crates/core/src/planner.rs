//! Compiles validated Datalog rules into executable relational-algebra plans.
//!
//! Every rule becomes a left-deep pipeline: a *scan* of its first body atom,
//! followed by one *join step* per remaining atom, followed by a projection
//! onto the head. Each join step is materialized into a temporary buffer —
//! the paper's "temporarily-materialized n-way join" (Section 5.2). For
//! rules inside a recursive stratum the planner emits one *delta version*
//! per occurrence of a same-stratum relation, realising semi-naïve
//! evaluation; the occurrence marked delta is moved to the front of the
//! pipeline so the (small) delta drives the outer loop.

use crate::analysis::{stratify_program, StratifiedProgram};
use crate::ast::{AggregateOp, Atom, CmpOp, Program, Rule, Term};
use crate::error::{EngineError, EngineResult};
use crate::ra::nway::NwayStrategy;
use crate::ra::op::{RaOp, RaPipeline};
use std::collections::HashMap;

/// Relation identifier: an index into [`CompiledProgram::relation_names`].
pub type RelId = usize;

/// Which version of a relation a plan step reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionSel {
    /// The accumulated `full` relation.
    Full,
    /// The previous iteration's `delta` relation.
    Delta,
}

/// A value source when projecting from an intermediate tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnSource {
    /// Column of the intermediate tuple.
    Col(usize),
    /// A literal constant.
    Const(u32),
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
    /// Columns kept in the intermediate tuple (one per distinct variable,
    /// in order of first appearance).
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
    /// How to build the next intermediate tuple.
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
}

impl CompiledProgram {
    /// Looks up a relation id by name.
    pub fn relation_id(&self, name: &str) -> Option<RelId> {
        self.relation_names.iter().position(|n| n == name)
    }

    /// Total number of rule plans (all versions) across all strata.
    pub fn plan_count(&self) -> usize {
        self.strata
            .iter()
            .map(|s| s.non_recursive.len() + s.recursive.len())
            .sum()
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
/// AntiJoin* → Project [→ Reduce]`; the fused strategy becomes `Scan →
/// FusedJoin [→ Reduce]` (the fused kernel produces head tuples
/// directly). Rules with negated literals always take the materialized
/// lowering — the anti-join probes pre-projection intermediate columns,
/// which the fused kernel never materializes. A trivially-empty plan
/// lowers to an empty pipeline, which every backend must treat as
/// deriving nothing.
pub fn lower_rule_plan(plan: &RulePlan, strategy: NwayStrategy) -> RaPipeline {
    let strategy = if plan.anti_joins.is_empty() {
        strategy
    } else {
        NwayStrategy::TemporarilyMaterialized
    };
    let mut ops = Vec::new();
    if !plan.trivially_empty {
        // A scan that binds no variables (an all-constant atom, e.g.
        // `R(1) :- E(2, 3).`) would produce a zero-column intermediate and
        // lose the matched-row count on the way to the head projection.
        // Keep one dummy column instead: its values are never referenced
        // (no variable means no downstream Col/Outer source can exist),
        // but the multiplicity survives. Joins inherit the dummy through
        // `emit` for the same reason.
        let mut scan = plan.scan.clone();
        if scan.keep_cols.is_empty() {
            scan.keep_cols.push(0);
        }
        ops.push(RaOp::Scan {
            step: scan,
            filters: plan.filters[0].clone(),
        });
        match strategy {
            NwayStrategy::TemporarilyMaterialized => {
                for (k, join) in plan.joins.iter().enumerate() {
                    let mut join = join.clone();
                    if join.emit.is_empty() {
                        // Empty emit implies no variable is bound yet, so
                        // the outer intermediate is exactly the dummy
                        // column introduced above.
                        join.emit.push(EmitSource::Outer(0));
                    }
                    ops.push(RaOp::HashJoin {
                        step: join,
                        filters: plan.filters[k + 1].clone(),
                    });
                }
                for step in &plan.anti_joins {
                    ops.push(RaOp::AntiJoin { step: step.clone() });
                }
                ops.push(RaOp::Project {
                    columns: plan.head_proj.clone(),
                });
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
                non_recursive.push(plan_rule(rule, rule_index, None, &id_of, &stratified)?);
            } else {
                for &occ in &recursive_occurrences {
                    recursive.push(plan_rule(rule, rule_index, Some(occ), &id_of, &stratified)?);
                }
            }
        }
        strata.push(CompiledStratum {
            relations: stratum_rels,
            non_recursive,
            recursive,
            is_recursive: stratum.recursive,
        });
    }

    Ok(CompiledProgram {
        relation_names: stratified.relation_names,
        arities: stratified.arities,
        inputs: stratified.inputs,
        outputs: stratified.outputs,
        facts,
        strata,
    })
}

/// Plans one rule version. `delta_occurrence` names the index (into the
/// rule's *positive* body atoms) that reads the delta relation (or `None`
/// for the all-full version).
fn plan_rule(
    rule: &Rule,
    rule_index: usize,
    delta_occurrence: Option<usize>,
    id_of: &HashMap<&str, RelId>,
    stratified: &StratifiedProgram,
) -> EngineResult<RulePlan> {
    // Positive literals drive the scan/join pipeline; negated literals
    // become anti-joins once every variable is bound.
    let positives: Vec<&Atom> = rule.positive_atoms().collect();
    if positives.is_empty() {
        return Err(EngineError::Validation {
            message: format!("rule `{rule}` has no positive body literal to ground it"),
        });
    }
    // Decide atom evaluation order: the delta atom (if any) first, then a
    // greedy order preferring atoms that share a variable with what is
    // already bound.
    let n_atoms = positives.len();
    let mut order: Vec<usize> = Vec::with_capacity(n_atoms);
    let mut remaining: Vec<usize> = (0..n_atoms).collect();
    if let Some(d) = delta_occurrence {
        order.push(d);
        remaining.retain(|&i| i != d);
    } else {
        order.push(remaining.remove(0));
    }
    let mut bound_vars: Vec<String> = Vec::new();
    let collect_vars = |atom: &Atom, bound: &mut Vec<String>| {
        for v in atom.variables() {
            if !bound.iter().any(|b| b == v) {
                bound.push(v.to_string());
            }
        }
    };
    collect_vars(positives[order[0]], &mut bound_vars);
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

    // Walk the pipeline, tracking which variable each intermediate column holds.
    let mut columns: Vec<String> = Vec::new();
    let first_atom = positives[order[0]];
    let scan = plan_scan(
        first_atom,
        version_for(order[0], delta_occurrence),
        id_of,
        &mut columns,
    );

    let mut joins = Vec::new();
    let mut filters: Vec<Vec<FilterStep>> = vec![Vec::new()];
    let mut applied = vec![false; rule.constraints.len()];
    let mut trivially_empty = false;
    collect_applicable_filters(
        rule,
        &columns,
        &mut applied,
        &mut filters[0],
        &mut trivially_empty,
    );

    for &atom_idx in &order[1..] {
        let atom = positives[atom_idx];
        let join = plan_join(
            atom,
            version_for(atom_idx, delta_occurrence),
            id_of,
            &mut columns,
        );
        joins.push(join);
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
    // variable is bound by now.
    let anti_joins: Vec<AntiJoinStep> = rule
        .negative_atoms()
        .map(|atom| AntiJoinStep {
            relation: id_of[atom.relation.as_str()],
            probe: atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => ColumnSource::Const(*c),
                    Term::Var(v) => {
                        let col = columns
                            .iter()
                            .position(|c| c == v)
                            .expect("negated-atom variable bound (checked by validation)");
                        ColumnSource::Col(col)
                    }
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
            Term::Var(v) => {
                let col = columns
                    .iter()
                    .position(|c| c == v)
                    .expect("head variable bound (checked by validation)");
                ColumnSource::Col(col)
            }
        })
        .collect();

    let reduce = rule.aggregate.as_ref().map(|agg| ReduceStep {
        op: agg.op,
        agg_column: agg.column,
    });

    let _ = stratified;
    Ok(RulePlan {
        rule_index,
        head: id_of[rule.head.relation.as_str()],
        scan,
        joins,
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

fn plan_scan(
    atom: &Atom,
    version: VersionSel,
    id_of: &HashMap<&str, RelId>,
    columns: &mut Vec<String>,
) -> ScanStep {
    let mut const_filters = Vec::new();
    let mut eq_filters = Vec::new();
    let mut keep_cols = Vec::new();
    let mut first_occurrence: HashMap<&str, usize> = HashMap::new();
    for (col, term) in atom.terms.iter().enumerate() {
        match term {
            Term::Const(c) => const_filters.push((col, *c)),
            Term::Var(v) => match first_occurrence.get(v.as_str()) {
                Some(&first) => eq_filters.push((first, col)),
                None => {
                    first_occurrence.insert(v, col);
                    keep_cols.push(col);
                    columns.push(v.clone());
                }
            },
        }
    }
    ScanStep {
        relation: id_of[atom.relation.as_str()],
        version,
        const_filters,
        eq_filters,
        keep_cols,
    }
}

fn plan_join(
    atom: &Atom,
    version: VersionSel,
    id_of: &HashMap<&str, RelId>,
    columns: &mut Vec<String>,
) -> JoinStep {
    let mut outer_key_cols = Vec::new();
    let mut inner_key_cols = Vec::new();
    let mut inner_const_filters = Vec::new();
    let mut inner_eq_filters = Vec::new();
    let mut new_vars: Vec<(String, usize)> = Vec::new();
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
                if let Some(outer_col) = columns.iter().position(|c| c == v) {
                    outer_key_cols.push(outer_col);
                    inner_key_cols.push(col);
                } else {
                    new_vars.push((v.clone(), col));
                }
            }
        }
    }
    let mut emit: Vec<EmitSource> = (0..columns.len()).map(EmitSource::Outer).collect();
    for (v, col) in new_vars {
        emit.push(EmitSource::Inner(col));
        columns.push(v);
    }
    JoinStep {
        relation: id_of[atom.relation.as_str()],
        version,
        outer_key_cols,
        inner_key_cols,
        inner_const_filters,
        inner_eq_filters,
        emit,
    }
}

fn collect_applicable_filters(
    rule: &Rule,
    columns: &[String],
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
                Term::Var(v) => columns.iter().position(|c| c == v).map(ColumnSource::Col),
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
        assert_eq!(c.plan_count(), 1);
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
        let c = compile_src(REACH);
        let stratum = c.strata.iter().find(|s| s.is_recursive).unwrap();
        let plan = &stratum.recursive[0];
        let pipeline = lower_rule_plan(plan, NwayStrategy::TemporarilyMaterialized);
        assert_eq!(pipeline.head, plan.head);
        assert_eq!(pipeline.ops.len(), 3);
        assert!(matches!(pipeline.ops[0], RaOp::Scan { .. }));
        assert!(matches!(pipeline.ops[1], RaOp::HashJoin { .. }));
        assert!(matches!(pipeline.ops[2], RaOp::Project { .. }));
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
            .decl Reach(x: number, y: number)
            .input Edge
            .input Blocked
            .output Reach
            Reach(x, y) :- Edge(x, y), !Blocked(y).
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
