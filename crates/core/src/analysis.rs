//! Program validation and stratification.
//!
//! Before planning, a program is checked for the usual Datalog
//! well-formedness conditions (declared relations, consistent arities, safe
//! rules) and its rules are grouped into *strata*: strongly connected
//! components of the relation dependency graph, evaluated in topological
//! order. Within a stratum the engine runs the semi-naive fixpoint loop;
//! across strata evaluation is a simple sequence, which is how Soufflé (and
//! GPUlog) schedule multi-relation programs such as CSPA.
//!
//! Negated literals and head aggregates mark their dependency edges as
//! *negative*: a negative edge inside a strongly connected component means
//! the program recurses through negation/aggregation and has no
//! stratification, rejected with [`EngineError::CyclicNegation`]. Across
//! components the order guarantees a negated or aggregated relation is
//! fully computed before any rule reading it runs.
//!
//! This module also hosts the goal-directed (magic-sets) rewrite,
//! [`magic_rewrite`]: given a program with a `?- Goal(..)` query, it
//! derives a bound/free adornment from the goal's constants, specializes
//! the reachable rules under a left-to-right sideways information passing
//! strategy, and adds *magic* predicates that restrict derivation to
//! bindings actually demanded by the goal. The rewritten program is an
//! ordinary stratified program — it flows through the same
//! validation/stratification passes and the unchanged planner/backends.

use crate::ast::{Atom, Literal, Program, Query, RelationDecl, Rule, Term};
use crate::error::{EngineError, EngineResult};
use std::collections::{HashMap, HashSet, VecDeque};

pub mod passes;

/// A validated program plus its evaluation order.
#[derive(Debug, Clone)]
pub struct StratifiedProgram {
    /// Relation names in declaration order (the engine's relation ids are
    /// indices into this list).
    pub relation_names: Vec<String>,
    /// Arity per relation (parallel to `relation_names`).
    pub arities: Vec<usize>,
    /// Relations flagged `.input`.
    pub inputs: Vec<bool>,
    /// Relations flagged `.output`.
    pub outputs: Vec<bool>,
    /// Strata in evaluation order; each stratum lists rule indices into the
    /// original program and whether the stratum is recursive.
    pub strata: Vec<Stratum>,
}

/// One evaluation stratum.
#[derive(Debug, Clone)]
pub struct Stratum {
    /// Relations (ids) whose rules belong to this stratum.
    pub relations: Vec<usize>,
    /// Indices of the program's rules evaluated in this stratum.
    pub rule_indices: Vec<usize>,
    /// Whether any rule in the stratum depends on a relation defined in the
    /// same stratum (i.e. the stratum needs a fixpoint loop).
    pub recursive: bool,
}

impl StratifiedProgram {
    /// Id of a relation by name.
    pub fn relation_id(&self, name: &str) -> Option<usize> {
        self.relation_names.iter().position(|n| n == name)
    }
}

/// Validates `program` and computes its strata (the precedence graph
/// pass).
///
/// # Errors
///
/// Returns [`EngineError::Validation`] when a rule references an undeclared
/// relation, uses a relation at the wrong arity, or derives into an
/// `.input` relation's arity inconsistently;
/// [`EngineError::UnboundVariable`] when a rule is unsafe (a head,
/// constraint, negated-atom, or aggregate variable not bound by any
/// positive body literal); and [`EngineError::CyclicNegation`] when the
/// program recurses through negation or aggregation, so no stratification
/// exists.
pub fn stratify_program(program: &Program) -> EngineResult<StratifiedProgram> {
    // Duplicate declarations.
    let mut seen = HashSet::new();
    for decl in &program.relations {
        if !seen.insert(decl.name.clone()) {
            return Err(EngineError::Validation {
                message: format!("relation {} declared more than once", decl.name),
            });
        }
        if decl.arity == 0 {
            return Err(EngineError::Validation {
                message: format!("relation {} must have at least one column", decl.name),
            });
        }
    }
    let relation_names: Vec<String> = program.relations.iter().map(|r| r.name.clone()).collect();
    let arities: Vec<usize> = program.relations.iter().map(|r| r.arity).collect();
    let id_of: HashMap<&str, usize> = relation_names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();

    for rule in &program.rules {
        validate_rule(rule, &id_of, &arities)?;
    }

    // Dependency graph: edge head -> body (head depends on body relation).
    // Negated literals mark their edge negative; a head aggregate marks
    // every body edge of its rule negative, because the reduce runs over
    // the rule's *finished* bindings and therefore needs the whole body in
    // strictly lower strata.
    let n = relation_names.len();
    let mut deps: Vec<HashSet<usize>> = vec![HashSet::new(); n];
    let mut negative_edges: Vec<(usize, usize, usize)> = Vec::new();
    for (ri, rule) in program.rules.iter().enumerate() {
        let head = id_of[rule.head.relation.as_str()];
        let aggregated = rule.aggregate.is_some();
        for literal in &rule.body {
            let body_id = id_of[literal.atom().relation.as_str()];
            deps[head].insert(body_id);
            if literal.is_negative() || aggregated {
                negative_edges.push((ri, head, body_id));
            }
        }
    }

    let sccs = tarjan_sccs(n, &deps);
    // `tarjan_sccs` emits components in reverse topological order of the
    // dependency graph (dependencies before dependents), which is exactly
    // the evaluation order we need.
    let mut component_of = vec![0usize; n];
    for (ci, comp) in sccs.iter().enumerate() {
        for &r in comp {
            component_of[r] = ci;
        }
    }

    // A negative edge inside a component is recursion through
    // negation/aggregation: no stratification exists.
    for &(ri, head, body_id) in &negative_edges {
        if component_of[head] == component_of[body_id] {
            return Err(EngineError::CyclicNegation {
                rule: program.rules[ri].to_string(),
                relation: relation_names[body_id].clone(),
            });
        }
    }

    let mut strata = Vec::new();
    for (ci, comp) in sccs.iter().enumerate() {
        let comp_set: HashSet<usize> = comp.iter().copied().collect();
        let mut rule_indices = Vec::new();
        let mut recursive = false;
        for (ri, rule) in program.rules.iter().enumerate() {
            let head = id_of[rule.head.relation.as_str()];
            if component_of[head] != ci {
                continue;
            }
            rule_indices.push(ri);
            // Only positive same-component dependencies make the stratum a
            // fixpoint loop; negative ones were rejected above.
            if rule
                .positive_atoms()
                .any(|a| comp_set.contains(&id_of[a.relation.as_str()]))
            {
                recursive = true;
            }
        }
        // A single-relation component with a self-loop is recursive even if
        // detected above; a component with no rules (pure input relation)
        // still becomes a (trivial) stratum so initialization is uniform.
        strata.push(Stratum {
            relations: comp.clone(),
            rule_indices,
            recursive,
        });
    }

    Ok(StratifiedProgram {
        relation_names,
        arities,
        inputs: program.relations.iter().map(|r| r.is_input).collect(),
        outputs: program.relations.iter().map(|r| r.is_output).collect(),
        strata,
    })
}

fn validate_rule(rule: &Rule, id_of: &HashMap<&str, usize>, arities: &[usize]) -> EngineResult<()> {
    let check_atom = |atom: &crate::ast::Atom| -> EngineResult<()> {
        match id_of.get(atom.relation.as_str()) {
            None => Err(EngineError::Validation {
                message: format!("rule `{rule}` uses undeclared relation {}", atom.relation),
            }),
            Some(&id) if arities[id] != atom.terms.len() => Err(EngineError::Validation {
                message: format!(
                    "rule `{rule}`: relation {} has arity {} but is used with {} arguments",
                    atom.relation,
                    arities[id],
                    atom.terms.len()
                ),
            }),
            Some(_) => Ok(()),
        }
    };
    check_atom(&rule.head)?;
    for literal in &rule.body {
        check_atom(literal.atom())?;
    }
    // Safety (range restriction): every head variable, constraint variable,
    // and negated-atom variable must be bound by a *positive* body literal.
    // Rules with an empty body must be ground facts. Negated atoms being
    // fully bound is what lets the engine lower them to point-membership
    // anti-joins.
    let bound: HashSet<&str> = rule.positive_atoms().flat_map(|a| a.variables()).collect();
    // Each context pins the error to the most precise parse span available:
    // the containing atom's relation name for head/negated-atom contexts,
    // the rule's own head span for constraints and aggregates.
    let unbound =
        |variable: &str, context: String, span: crate::ast::Span| EngineError::UnboundVariable {
            rule: rule.to_string(),
            variable: variable.to_string(),
            context,
            line: span.line,
            column: span.column,
        };
    for term in &rule.head.terms {
        if let Term::Var(v) = term {
            if !bound.contains(v.as_str()) {
                return Err(unbound(v, "head".into(), rule.head.span));
            }
        }
    }
    for atom in rule.negative_atoms() {
        for v in atom.variables() {
            if !bound.contains(v) {
                return Err(unbound(
                    v,
                    format!("negated atom {}", atom.relation),
                    atom.span,
                ));
            }
        }
    }
    for c in &rule.constraints {
        for term in [&c.left, &c.right] {
            if let Term::Var(v) = term {
                if !bound.contains(v.as_str()) {
                    return Err(unbound(v, "constraint".into(), rule.span));
                }
            }
        }
    }
    if let Some(agg) = &rule.aggregate {
        if agg.column >= rule.head.terms.len()
            || rule.head.terms[agg.column].as_var() != Some(agg.var.as_str())
        {
            return Err(EngineError::Validation {
                message: format!(
                    "rule `{rule}`: aggregate {}({}) must name the head term at column {}",
                    agg.op, agg.var, agg.column
                ),
            });
        }
        let elsewhere = rule
            .head
            .terms
            .iter()
            .enumerate()
            .any(|(i, t)| i != agg.column && t.as_var() == Some(agg.var.as_str()));
        if elsewhere {
            return Err(EngineError::Validation {
                message: format!(
                    "rule `{rule}`: aggregate variable {} also appears as a group key",
                    agg.var
                ),
            });
        }
        if !bound.contains(agg.var.as_str()) {
            return Err(unbound(&agg.var, "aggregate".into(), rule.span));
        }
    }
    Ok(())
}

/// The output of the magic-sets rewrite: a plain stratified program plus
/// the seeding/answer metadata the engine needs to run it.
///
/// Produced by [`magic_rewrite`]. The rewritten [`MagicProgram::program`]
/// carries no query of its own — it is evaluated bottom-up like any other
/// program; goal-directedness lives entirely in the extra magic relations
/// and the seed fact.
#[derive(Debug, Clone)]
pub struct MagicProgram {
    /// The rewritten program (original declarations, plus adorned and
    /// magic relations; original rules kept only where an unadorned
    /// relation is still demanded).
    pub program: Program,
    /// The relation whose tuples answer the goal. On the magic path this
    /// is the adorned goal relation; on the fallback path it is the goal
    /// relation itself. Answer tuples must still be filtered to rows whose
    /// bound positions equal [`MagicProgram::seed`] — the adorned relation
    /// also holds answers for subgoals demanded along the way.
    pub answer_relation: String,
    /// The magic relation to seed with [`MagicProgram::seed`] before
    /// running, or `None` on the fallback (full-evaluation) path.
    pub magic_relation: Option<String>,
    /// The goal's constants in bound-position order: the magic seed fact.
    pub seed: Vec<u32>,
    /// The goal's bound/free adornment (`true` = bound), used to filter
    /// answer tuples.
    pub adornment: Vec<bool>,
}

/// Internal naming for one adorned predicate: `Reach` queried as `bf`
/// becomes the adorned `Reach_bf` plus its demand relation `m_Reach_bf`.
#[derive(Debug, Clone)]
struct AdornedNames {
    adorned: String,
    magic: String,
}

fn adornment_suffix(adornment: &[bool]) -> String {
    adornment
        .iter()
        .map(|&b| if b { 'b' } else { 'f' })
        .collect()
}

/// Rewrites `program` for goal-directed evaluation of `query` (magic
/// sets with a left-to-right SIPS).
///
/// For each intensional predicate demanded with at least one bound
/// argument, the rewrite emits an adorned copy of its rules: the rule
/// head moves to the adorned relation, a *magic* atom over the bound head
/// arguments is prepended to the body (restricting the rule to demanded
/// bindings), positive body atoms of adornable predicates are themselves
/// adorned left to right (an argument is bound if it is a constant or a
/// variable bound by the magic atom or an earlier positive literal), and
/// for each such body occurrence a magic rule propagates the demand:
/// `m_Child(bound args) :- m_Head(bound head args), <prefix literals>.`
///
/// Predicates that stay unadorned — extensional relations, negated or
/// aggregated relations, and positive occurrences where the SIPS finds no
/// bound argument — keep their original rules (transitively), so they are
/// evaluated in full exactly as before; the existing stratification pass
/// then places them below their readers, which is what keeps negation and
/// aggregates sound under the rewrite. The fallback path (all-free goal,
/// or a goal on an extensional/aggregated relation) returns the program
/// unrewritten: the engine evaluates the full fixpoint and filters.
///
/// Evaluating the rewritten program with the seed fact loaded into
/// [`MagicProgram::magic_relation`] and then selecting the
/// [`MagicProgram::answer_relation`] tuples whose bound positions equal
/// the seed yields exactly the goal-matching tuples of the original
/// program's fixpoint.
///
/// # Errors
///
/// Returns [`EngineError::UnknownQueryRelation`] when the goal names an
/// undeclared relation and [`EngineError::QueryArityMismatch`] when the
/// goal's argument count disagrees with the declaration — both carrying
/// the goal's source span when it was parsed from text.
pub fn magic_rewrite(program: &Program, query: &Query) -> EngineResult<MagicProgram> {
    let goal = &query.atom;
    let decl =
        program
            .relation(&goal.relation)
            .ok_or_else(|| EngineError::UnknownQueryRelation {
                relation: goal.relation.clone(),
                line: query.line,
                column: query.column,
            })?;
    if decl.arity != goal.terms.len() {
        return Err(EngineError::QueryArityMismatch {
            relation: goal.relation.clone(),
            expected: decl.arity,
            got: goal.terms.len(),
            line: query.line,
            column: query.column,
        });
    }
    let adornment = query.adornment();

    let mut rules_of: HashMap<&str, Vec<usize>> = HashMap::new();
    for (ri, rule) in program.rules.iter().enumerate() {
        rules_of
            .entry(rule.head.relation.as_str())
            .or_default()
            .push(ri);
    }
    let aggregated: HashSet<&str> = program
        .rules
        .iter()
        .filter(|r| r.aggregate.is_some())
        .map(|r| r.head.relation.as_str())
        .collect();
    // A predicate can be adorned when it has rules to specialize, none of
    // them reduces (pushing a binding into an aggregate's group could drop
    // tuples the reduction needs, so aggregated relations always evaluate
    // in full below their readers), and it is not declared `.input`:
    // declared inputs receive extensional facts at runtime that no adorned
    // copy of their rules would reproduce.
    let adornable = |name: &str| {
        rules_of.contains_key(name)
            && !aggregated.contains(name)
            && !program.relation(name).is_some_and(|d| d.is_input)
    };

    if !adornment.contains(&true) || !adornable(&goal.relation) {
        let mut full = program.clone();
        full.query = None;
        return Ok(MagicProgram {
            program: full,
            answer_relation: goal.relation.clone(),
            magic_relation: None,
            seed: query.bound_constants(),
            adornment,
        });
    }

    // Fresh, deterministic names for adorned/magic relations. Trailing
    // underscores disambiguate in the (unlikely) case a user relation is
    // already called e.g. `Reach_bf`.
    let mut taken: HashSet<String> = program.relations.iter().map(|r| r.name.clone()).collect();
    let mut fresh = |base: String| -> String {
        let mut name = base;
        while !taken.insert(name.clone()) {
            name.push('_');
        }
        name
    };

    let mut names: HashMap<(String, String), AdornedNames> = HashMap::new();
    let mut order: Vec<(String, String, Vec<bool>)> = Vec::new();
    let mut queue: VecDeque<(String, Vec<bool>)> = VecDeque::new();
    let mut intern = |relation: &str,
                      ad: Vec<bool>,
                      names: &mut HashMap<(String, String), AdornedNames>,
                      order: &mut Vec<(String, String, Vec<bool>)>,
                      queue: &mut VecDeque<(String, Vec<bool>)>|
     -> AdornedNames {
        let suffix = adornment_suffix(&ad);
        let key = (relation.to_string(), suffix.clone());
        if let Some(existing) = names.get(&key) {
            return existing.clone();
        }
        let entry = AdornedNames {
            adorned: fresh(format!("{relation}_{suffix}")),
            magic: fresh(format!("m_{relation}_{suffix}")),
        };
        names.insert(key, entry.clone());
        order.push((relation.to_string(), suffix, ad.clone()));
        queue.push_back((relation.to_string(), ad));
        entry
    };

    let goal_names = intern(
        &goal.relation,
        adornment.clone(),
        &mut names,
        &mut order,
        &mut queue,
    );

    let mut adorned_rules: Vec<Rule> = Vec::new();
    let mut magic_rules: Vec<Rule> = Vec::new();
    let mut magic_seen: HashSet<String> = HashSet::new();
    // Unadorned intensional predicates still demanded somewhere (negated,
    // aggregated, or reached with no bound argument): their original rules
    // are kept, so they evaluate in full.
    let mut full_needed: HashSet<String> = HashSet::new();

    while let Some((relation, ad)) = queue.pop_front() {
        let head_names = names[&(relation.clone(), adornment_suffix(&ad))].clone();
        for &ri in &rules_of[relation.as_str()] {
            let rule = &program.rules[ri];
            // The magic atom carries the bound head arguments; its
            // variables are what the demand binds left of the body.
            let magic_terms: Vec<Term> = rule
                .head
                .terms
                .iter()
                .zip(&ad)
                .filter(|(_, &b)| b)
                .map(|(t, _)| t.clone())
                .collect();
            let mut bound: HashSet<String> = magic_terms
                .iter()
                .filter_map(|t| t.as_var().map(str::to_string))
                .collect();
            let mut new_body: Vec<Literal> = vec![Literal::Pos(Atom::new(
                head_names.magic.clone(),
                magic_terms,
            ))];
            for literal in &rule.body {
                match literal {
                    Literal::Pos(atom) => {
                        let arg_bound: Vec<bool> = atom
                            .terms
                            .iter()
                            .map(|t| match t {
                                Term::Const(_) => true,
                                Term::Var(v) => bound.contains(v),
                            })
                            .collect();
                        let rewritten = if adornable(&atom.relation) && arg_bound.contains(&true) {
                            let child = intern(
                                &atom.relation,
                                arg_bound.clone(),
                                &mut names,
                                &mut order,
                                &mut queue,
                            );
                            let child_magic = Atom::new(
                                child.magic.clone(),
                                atom.terms
                                    .iter()
                                    .zip(&arg_bound)
                                    .filter(|(_, &b)| b)
                                    .map(|(t, _)| t.clone())
                                    .collect(),
                            );
                            // Demand propagation: the child's bound args
                            // are derivable from the head's demand plus
                            // the prefix already joined. Constraints are
                            // dropped — over-approximating demand is
                            // sound, it only derives unasked-for tuples.
                            let identity = new_body.len() == 1
                                && matches!(&new_body[0], Literal::Pos(a) if *a == child_magic);
                            if !identity {
                                let magic_rule = Rule {
                                    head: child_magic,
                                    aggregate: None,
                                    body: new_body.clone(),
                                    constraints: Vec::new(),
                                    span: rule.span,
                                };
                                if magic_seen.insert(magic_rule.to_string()) {
                                    magic_rules.push(magic_rule);
                                }
                            }
                            Atom::new(child.adorned.clone(), atom.terms.clone())
                        } else {
                            if rules_of.contains_key(atom.relation.as_str()) {
                                full_needed.insert(atom.relation.clone());
                            }
                            atom.clone()
                        };
                        for v in atom.variables() {
                            bound.insert(v.to_string());
                        }
                        new_body.push(Literal::Pos(rewritten));
                    }
                    Literal::Neg(atom) => {
                        if rules_of.contains_key(atom.relation.as_str()) {
                            full_needed.insert(atom.relation.clone());
                        }
                        new_body.push(Literal::Neg(atom.clone()));
                    }
                }
            }
            adorned_rules.push(Rule {
                head: Atom::new(head_names.adorned.clone(), rule.head.terms.clone()),
                aggregate: None,
                body: new_body,
                constraints: rule.constraints.clone(),
                span: rule.span,
            });
        }
    }

    // Unadorned demand is transitive: a fully-evaluated relation needs
    // everything its own rules read, also in full.
    let mut pending: Vec<String> = full_needed.iter().cloned().collect();
    while let Some(relation) = pending.pop() {
        for &ri in rules_of.get(relation.as_str()).into_iter().flatten() {
            for literal in &program.rules[ri].body {
                let name = literal.atom().relation.as_str();
                if rules_of.contains_key(name) && full_needed.insert(name.to_string()) {
                    pending.push(name.to_string());
                }
            }
        }
    }

    let mut rewritten = Program {
        relations: program.relations.clone(),
        rules: Vec::new(),
        query: None,
    };
    for (relation, suffix, ad) in &order {
        let entry = &names[&(relation.clone(), suffix.clone())];
        let arity = program.relation(relation).map_or(0, |d| d.arity);
        rewritten.relations.push(RelationDecl {
            name: entry.adorned.clone(),
            arity,
            is_input: false,
            is_output: entry.adorned == goal_names.adorned,
        });
        rewritten.relations.push(RelationDecl {
            name: entry.magic.clone(),
            arity: ad.iter().filter(|&&b| b).count(),
            // The goal's magic relation is extensional: it is seeded with
            // the query constants before the run.
            is_input: entry.magic == goal_names.magic,
            is_output: false,
        });
    }
    for rule in &program.rules {
        if full_needed.contains(rule.head.relation.as_str()) {
            rewritten.rules.push(rule.clone());
        }
    }
    rewritten.rules.extend(adorned_rules);
    rewritten.rules.extend(magic_rules);

    Ok(MagicProgram {
        program: rewritten,
        answer_relation: goal_names.adorned,
        magic_relation: Some(goal_names.magic),
        seed: query.bound_constants(),
        adornment,
    })
}

/// Tarjan's strongly-connected-components algorithm (iterative).
///
/// Components are returned in reverse topological order of the condensation
/// with respect to `deps` (where `deps[v]` lists the nodes `v` depends on):
/// every component appears after the components it depends on.
fn tarjan_sccs(n: usize, deps: &[HashSet<usize>]) -> Vec<Vec<usize>> {
    #[derive(Clone)]
    struct NodeState {
        index: Option<usize>,
        lowlink: usize,
        on_stack: bool,
    }
    let mut state = vec![
        NodeState {
            index: None,
            lowlink: 0,
            on_stack: false,
        };
        n
    ];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components: Vec<Vec<usize>> = Vec::new();
    let adjacency: Vec<Vec<usize>> = deps
        .iter()
        .map(|s| {
            let mut v: Vec<usize> = s.iter().copied().collect();
            v.sort_unstable();
            v
        })
        .collect();

    for start in 0..n {
        if state[start].index.is_some() {
            continue;
        }
        // Explicit DFS stack of (node, next neighbour position).
        let mut call_stack: Vec<(usize, usize)> = vec![(start, 0)];
        state[start].index = Some(next_index);
        state[start].lowlink = next_index;
        state[start].on_stack = true;
        stack.push(start);
        next_index += 1;
        while let Some(&mut (v, ref mut ni)) = call_stack.last_mut() {
            if *ni < adjacency[v].len() {
                let w = adjacency[v][*ni];
                *ni += 1;
                if state[w].index.is_none() {
                    state[w].index = Some(next_index);
                    state[w].lowlink = next_index;
                    state[w].on_stack = true;
                    stack.push(w);
                    next_index += 1;
                    call_stack.push((w, 0));
                } else if state[w].on_stack {
                    state[v].lowlink = state[v].lowlink.min(state[w].index.unwrap());
                }
            } else {
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    let child_low = state[v].lowlink;
                    state[parent].lowlink = state[parent].lowlink.min(child_low);
                }
                if state[v].lowlink == state[v].index.unwrap() {
                    let mut component = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        state[w].on_stack = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    component.sort_unstable();
                    components.push(component);
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CmpOp, ProgramBuilder, Term};
    use crate::parser::parse_program;

    fn reach() -> Program {
        parse_program(
            r"
            .decl Edge(x: number, y: number)
            .input Edge
            .decl Reach(x: number, y: number)
            .output Reach
            Reach(x, y) :- Edge(x, y).
            Reach(x, y) :- Edge(x, z), Reach(z, y).
        ",
        )
        .unwrap()
    }

    #[test]
    fn reach_produces_edge_stratum_then_recursive_reach_stratum() {
        let s = stratify_program(&reach()).unwrap();
        assert_eq!(s.relation_names, vec!["Edge", "Reach"]);
        // Edge has no rules; Reach is recursive.
        let reach_stratum = s
            .strata
            .iter()
            .find(|st| st.relations.contains(&s.relation_id("Reach").unwrap()))
            .unwrap();
        assert!(reach_stratum.recursive);
        assert_eq!(reach_stratum.rule_indices.len(), 2);
        // Edge's stratum must come before Reach's.
        let edge_pos = s
            .strata
            .iter()
            .position(|st| st.relations.contains(&s.relation_id("Edge").unwrap()))
            .unwrap();
        let reach_pos = s
            .strata
            .iter()
            .position(|st| st.relations.contains(&s.relation_id("Reach").unwrap()))
            .unwrap();
        assert!(edge_pos < reach_pos);
    }

    #[test]
    fn mutually_recursive_relations_share_a_stratum() {
        let p = parse_program(
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
        )
        .unwrap();
        let s = stratify_program(&p).unwrap();
        let a = s.relation_id("A").unwrap();
        let b = s.relation_id("B").unwrap();
        let shared = s
            .strata
            .iter()
            .find(|st| st.relations.contains(&a))
            .unwrap();
        assert!(shared.relations.contains(&b));
        assert!(shared.recursive);
        assert_eq!(shared.rule_indices.len(), 3);
    }

    #[test]
    fn non_recursive_program_has_no_recursive_strata() {
        let p = parse_program(
            r"
            .decl E(x: number, y: number)
            .decl TwoHop(x: number, y: number)
            .input E
            .output TwoHop
            TwoHop(x, y) :- E(x, z), E(z, y).
        ",
        )
        .unwrap();
        let s = stratify_program(&p).unwrap();
        assert!(s.strata.iter().all(|st| !st.recursive));
    }

    #[test]
    fn undeclared_relation_is_rejected() {
        let p = ProgramBuilder::new()
            .output_relation("R", 1)
            .rule("R", vec![Term::var("x")])
            .body("Missing", vec![Term::var("x")])
            .end_rule()
            .build()
            .unwrap();
        assert!(matches!(
            stratify_program(&p),
            Err(EngineError::Validation { .. })
        ));
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let p = ProgramBuilder::new()
            .input_relation("E", 2)
            .output_relation("R", 1)
            .rule("R", vec![Term::var("x")])
            .body("E", vec![Term::var("x")])
            .end_rule()
            .build()
            .unwrap();
        let err = stratify_program(&p).unwrap_err();
        assert!(err.to_string().contains("arity"));
    }

    #[test]
    fn unsafe_head_variable_is_rejected() {
        let p = ProgramBuilder::new()
            .input_relation("E", 2)
            .output_relation("R", 2)
            .rule("R", vec![Term::var("x"), Term::var("w")])
            .body("E", vec![Term::var("x"), Term::var("y")])
            .end_rule()
            .build()
            .unwrap();
        let err = stratify_program(&p).unwrap_err();
        assert!(matches!(err, EngineError::UnboundVariable { .. }));
        assert!(err.to_string().contains("unsafe"));
    }

    #[test]
    fn unsafe_constraint_variable_is_rejected() {
        let p = ProgramBuilder::new()
            .input_relation("E", 2)
            .output_relation("R", 2)
            .rule("R", vec![Term::var("x"), Term::var("y")])
            .body("E", vec![Term::var("x"), Term::var("y")])
            .constraint(Term::var("z"), CmpOp::Ne, Term::var("x"))
            .end_rule()
            .build()
            .unwrap();
        assert!(matches!(
            stratify_program(&p),
            Err(EngineError::UnboundVariable { .. })
        ));
    }

    #[test]
    fn duplicate_declaration_is_rejected() {
        let p = ProgramBuilder::new()
            .input_relation("E", 2)
            .input_relation("E", 2)
            .build()
            .unwrap();
        assert!(stratify_program(&p).is_err());
    }

    #[test]
    fn negated_relation_lands_in_a_lower_stratum() {
        let p = parse_program(
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
        )
        .unwrap();
        let s = stratify_program(&p).unwrap();
        let blocked_pos = s
            .strata
            .iter()
            .position(|st| st.relations.contains(&s.relation_id("Blocked").unwrap()))
            .unwrap();
        let reach_pos = s
            .strata
            .iter()
            .position(|st| st.relations.contains(&s.relation_id("Reach").unwrap()))
            .unwrap();
        assert!(blocked_pos < reach_pos);
        assert!(s.strata[reach_pos].recursive);
    }

    #[test]
    fn cyclic_negation_is_rejected_with_typed_error() {
        let p = parse_program(
            r"
            .decl E(x: number)
            .decl A(x: number)
            .decl B(x: number)
            .input E
            .output A
            A(x) :- E(x), !B(x).
            B(x) :- E(x), !A(x).
        ",
        )
        .unwrap();
        match stratify_program(&p).unwrap_err() {
            EngineError::CyclicNegation { rule, relation } => {
                assert!(relation == "A" || relation == "B");
                assert!(rule.contains('!'));
            }
            other => panic!("expected CyclicNegation, got {other:?}"),
        }
    }

    #[test]
    fn negation_in_a_direct_self_loop_is_rejected() {
        let p = parse_program(
            r"
            .decl E(x: number)
            .decl A(x: number)
            .input E
            .output A
            A(x) :- E(x), !A(x).
        ",
        )
        .unwrap();
        assert!(matches!(
            stratify_program(&p),
            Err(EngineError::CyclicNegation { .. })
        ));
    }

    #[test]
    fn aggregation_through_recursion_is_rejected() {
        let p = parse_program(
            r"
            .decl E(x: number, d: number)
            .decl S(x: number, d: number)
            .input E
            .output S
            S(x, d) :- E(x, d).
            S(x, min(d)) :- S(x, d).
        ",
        )
        .unwrap();
        assert!(matches!(
            stratify_program(&p),
            Err(EngineError::CyclicNegation { .. })
        ));
    }

    #[test]
    fn unbound_negated_variable_is_rejected() {
        let p = parse_program(
            r"
            .decl E(x: number)
            .decl B(x: number, y: number)
            .decl R(x: number)
            .input E
            .input B
            .output R
            R(x) :- E(x), !B(x, y).
        ",
        )
        .unwrap();
        match stratify_program(&p).unwrap_err() {
            EngineError::UnboundVariable {
                variable, context, ..
            } => {
                assert_eq!(variable, "y");
                assert!(context.contains("negated atom B"));
            }
            other => panic!("expected UnboundVariable, got {other:?}"),
        }
        // A wildcard inside a negated atom is an unbound fresh variable.
        let wild = parse_program(
            r"
            .decl E(x: number)
            .decl B(x: number, y: number)
            .decl R(x: number)
            .input E
            .input B
            .output R
            R(x) :- E(x), !B(x, _).
        ",
        )
        .unwrap();
        assert!(matches!(
            stratify_program(&wild),
            Err(EngineError::UnboundVariable { .. })
        ));
    }

    #[test]
    fn aggregate_structural_checks_reject_bad_shapes() {
        use crate::ast::{Aggregate, AggregateOp};
        // Aggregate column out of range.
        let mut p = parse_program(
            r"
            .decl E(x: number, d: number)
            .decl S(x: number, d: number)
            .input E
            .output S
            S(x, d) :- E(x, d).
        ",
        )
        .unwrap();
        p.rules[0].aggregate = Some(Aggregate {
            op: AggregateOp::Min,
            var: "d".into(),
            column: 5,
        });
        assert!(matches!(
            stratify_program(&p),
            Err(EngineError::Validation { .. })
        ));
        // Aggregate variable repeated as a group key.
        let dup = parse_program(
            r"
            .decl E(x: number, d: number)
            .decl S(x: number, d: number)
            .input E
            .output S
            S(d, min(d)) :- E(x, d).
        ",
        )
        .unwrap();
        let err = stratify_program(&dup).unwrap_err();
        assert!(err.to_string().contains("group key"));
    }

    fn goal_reach() -> Program {
        parse_program(
            r"
            .decl Edge(x: number, y: number)
            .input Edge
            .decl Reach(x: number, y: number)
            .output Reach
            Reach(x, y) :- Edge(x, y).
            Reach(x, z) :- Reach(x, y), Edge(y, z).
            ?- Reach(7, y).
        ",
        )
        .unwrap()
    }

    #[test]
    fn magic_rewrite_specializes_left_recursive_reach() {
        let p = goal_reach();
        let query = p.query.clone().unwrap();
        let magic = magic_rewrite(&p, &query).unwrap();
        assert_eq!(magic.answer_relation, "Reach_bf");
        assert_eq!(magic.magic_relation.as_deref(), Some("m_Reach_bf"));
        assert_eq!(magic.seed, vec![7]);
        assert_eq!(magic.adornment, vec![true, false]);
        let rewritten = &magic.program;
        // Original Reach rules are gone (nothing demands Reach in full);
        // the adorned rules carry the magic guard as their first literal.
        assert!(rewritten.rules.iter().all(|r| r.head.relation != "Reach"));
        let adorned: Vec<&Rule> = rewritten
            .rules
            .iter()
            .filter(|r| r.head.relation == "Reach_bf")
            .collect();
        assert_eq!(adorned.len(), 2);
        for rule in &adorned {
            assert_eq!(rule.body[0].atom().relation, "m_Reach_bf");
            assert!(rule.body[0].is_positive());
        }
        // Left recursion re-demands the same binding: the identity magic
        // rule `m(x) :- m(x).` is skipped, so no magic rules remain and
        // the magic set is exactly the seed.
        assert!(rewritten
            .rules
            .iter()
            .all(|r| r.head.relation != "m_Reach_bf"));
        let magic_decl = rewritten.relation("m_Reach_bf").unwrap();
        assert_eq!(magic_decl.arity, 1);
        assert!(magic_decl.is_input);
        assert!(rewritten.relation("Reach_bf").unwrap().is_output);
        // The rewritten program is an ordinary stratified program.
        stratify_program(rewritten).unwrap();
    }

    #[test]
    fn magic_rewrite_propagates_demand_through_right_recursion() {
        let p = parse_program(
            r"
            .decl Edge(x: number, y: number)
            .input Edge
            .decl Reach(x: number, y: number)
            .output Reach
            Reach(x, y) :- Edge(x, y).
            Reach(x, y) :- Edge(x, z), Reach(z, y).
            ?- Reach(7, y).
        ",
        )
        .unwrap();
        let query = p.query.clone().unwrap();
        let magic = magic_rewrite(&p, &query).unwrap();
        // `Reach(z, y)` sees z bound through Edge(x, z): same bf
        // adornment, but now the demand genuinely grows, so a magic rule
        // `m_Reach_bf(z) :- m_Reach_bf(x), Edge(x, z).` must exist.
        let magic_rules: Vec<&Rule> = magic
            .program
            .rules
            .iter()
            .filter(|r| r.head.relation == "m_Reach_bf")
            .collect();
        assert_eq!(magic_rules.len(), 1);
        assert_eq!(magic_rules[0].body.len(), 2);
        assert_eq!(magic_rules[0].body[0].atom().relation, "m_Reach_bf");
        assert_eq!(magic_rules[0].body[1].atom().relation, "Edge");
        stratify_program(&magic.program).unwrap();
    }

    #[test]
    fn magic_rewrite_keeps_negated_relations_fully_evaluated() {
        let p = parse_program(
            r"
            .decl Edge(x: number, y: number)
            .input Edge
            .decl Hub(x: number)
            .decl Blocked(x: number)
            .decl Reach(x: number, y: number)
            .output Reach
            Hub(x) :- Edge(x, 0).
            Blocked(x) :- Hub(x).
            Reach(x, y) :- Edge(x, y), !Blocked(y).
            Reach(x, z) :- Reach(x, y), Edge(y, z), !Blocked(z).
            ?- Reach(3, y).
        ",
        )
        .unwrap();
        let query = p.query.clone().unwrap();
        let magic = magic_rewrite(&p, &query).unwrap();
        // Blocked is demanded negatively, so it (and Hub, which it reads)
        // keep their original rules and evaluate in full.
        let heads: Vec<&str> = magic
            .program
            .rules
            .iter()
            .map(|r| r.head.relation.as_str())
            .collect();
        assert!(heads.contains(&"Blocked"));
        assert!(heads.contains(&"Hub"));
        assert!(!heads.contains(&"Reach"));
        // Negated literals survive inside the adorned rules.
        let adorned_neg = magic
            .program
            .rules
            .iter()
            .filter(|r| r.head.relation == "Reach_bf")
            .flat_map(|r| r.negative_atoms())
            .count();
        assert_eq!(adorned_neg, 2);
        let s = stratify_program(&magic.program).unwrap();
        let pos = |name: &str| {
            s.strata
                .iter()
                .position(|st| st.relations.contains(&s.relation_id(name).unwrap()))
                .unwrap()
        };
        assert!(pos("Blocked") < pos("Reach_bf"));
    }

    #[test]
    fn magic_rewrite_falls_back_when_nothing_is_bound() {
        let mut p = goal_reach();
        p.query = Some(Query::new(Atom::new(
            "Reach",
            vec![Term::var("x"), Term::var("y")],
        )));
        let query = p.query.clone().unwrap();
        let magic = magic_rewrite(&p, &query).unwrap();
        assert_eq!(magic.answer_relation, "Reach");
        assert!(magic.magic_relation.is_none());
        assert!(magic.seed.is_empty());
        let mut original = p.clone();
        original.query = None;
        assert_eq!(magic.program, original);
    }

    #[test]
    fn magic_rewrite_falls_back_on_extensional_goals() {
        let p =
            parse_program(".decl Edge(x: number, y: number)\n.input Edge\n?- Edge(1, y).").unwrap();
        let query = p.query.clone().unwrap();
        let magic = magic_rewrite(&p, &query).unwrap();
        assert!(magic.magic_relation.is_none());
        assert_eq!(magic.answer_relation, "Edge");
        assert_eq!(magic.seed, vec![1]);
    }

    #[test]
    fn magic_rewrite_never_adorns_declared_inputs() {
        // Ground facts make Edge look rule-defined, but `.input` means the
        // engine may add extensional tuples at runtime that no adorned copy
        // of the fact rules would reproduce — Edge must stay unadorned.
        let p = parse_program(
            r"
            .decl Edge(x: number, y: number)
            .input Edge
            .decl Reach(x: number, y: number)
            .output Reach
            Edge(9, 9).
            Reach(x, y) :- Edge(x, y).
            Reach(x, z) :- Reach(x, y), Edge(y, z).
            ?- Reach(7, y).
        ",
        )
        .unwrap();
        let query = p.query.clone().unwrap();
        let magic = magic_rewrite(&p, &query).unwrap();
        let rewritten = &magic.program;
        assert!(rewritten.relation("Edge_bb").is_none());
        assert!(rewritten.relation("Edge_bf").is_none());
        // Edge keeps its ground fact, evaluated in full.
        assert!(rewritten
            .rules
            .iter()
            .any(|r| r.head.relation == "Edge" && r.body.is_empty()));
        // A goal on the input itself takes the fallback path.
        let edge_goal = Query::new(Atom::new("Edge", vec![Term::Const(9), Term::var("y")]));
        let fallback = magic_rewrite(&p, &edge_goal).unwrap();
        assert!(fallback.magic_relation.is_none());
    }

    #[test]
    fn magic_rewrite_falls_back_on_aggregated_goals() {
        let p = parse_program(
            r"
            .decl E(x: number, d: number)
            .input E
            .decl S(x: number, d: number)
            .output S
            S(x, min(d)) :- E(x, d).
            ?- S(2, d).
        ",
        )
        .unwrap();
        let query = p.query.clone().unwrap();
        let magic = magic_rewrite(&p, &query).unwrap();
        assert!(
            magic.magic_relation.is_none(),
            "bindings must not be pushed into an aggregate's group"
        );
        assert_eq!(magic.answer_relation, "S");
    }

    #[test]
    fn magic_rewrite_reports_unknown_relation_with_span() {
        let p = parse_program(".decl E(x: number)\n.input E\n?- Ghost(1).").unwrap();
        let query = p.query.clone().unwrap();
        match magic_rewrite(&p, &query).unwrap_err() {
            EngineError::UnknownQueryRelation {
                relation,
                line,
                column,
            } => {
                assert_eq!(relation, "Ghost");
                assert_eq!((line, column), (3, 4));
            }
            other => panic!("expected UnknownQueryRelation, got {other:?}"),
        }
    }

    #[test]
    fn magic_rewrite_reports_arity_mismatch_with_span() {
        let p = parse_program(".decl E(x: number, y: number)\n.input E\n?- E(1, 2, 3).").unwrap();
        let query = p.query.clone().unwrap();
        match magic_rewrite(&p, &query).unwrap_err() {
            EngineError::QueryArityMismatch {
                relation,
                expected,
                got,
                line,
                column,
            } => {
                assert_eq!(relation, "E");
                assert_eq!((expected, got), (2, 3));
                assert_eq!((line, column), (3, 4));
            }
            other => panic!("expected QueryArityMismatch, got {other:?}"),
        }
    }

    #[test]
    fn magic_rewrite_uniquifies_colliding_names() {
        let p = parse_program(
            r"
            .decl Edge(x: number, y: number)
            .input Edge
            .decl Reach_bf(x: number)
            .input Reach_bf
            .decl Reach(x: number, y: number)
            .output Reach
            Reach(x, y) :- Edge(x, y), Reach_bf(x).
            Reach(x, z) :- Reach(x, y), Edge(y, z).
            ?- Reach(1, y).
        ",
        )
        .unwrap();
        let query = p.query.clone().unwrap();
        let magic = magic_rewrite(&p, &query).unwrap();
        assert_eq!(magic.answer_relation, "Reach_bf_");
        stratify_program(&magic.program).unwrap();
    }

    #[test]
    fn tarjan_handles_chains_cycles_and_self_loops() {
        // 0 -> 1 -> 2, 2 -> 1 (cycle {1,2}), 3 self-loop, 4 isolated.
        let mut deps: Vec<HashSet<usize>> = vec![HashSet::new(); 5];
        deps[0].insert(1);
        deps[1].insert(2);
        deps[2].insert(1);
        deps[3].insert(3);
        let comps = tarjan_sccs(5, &deps);
        assert!(comps.contains(&vec![1, 2]));
        assert!(comps.contains(&vec![0]));
        assert!(comps.contains(&vec![3]));
        assert!(comps.contains(&vec![4]));
        // {1,2} must appear before {0} (0 depends on the cycle).
        let pos_cycle = comps.iter().position(|c| c == &vec![1, 2]).unwrap();
        let pos_zero = comps.iter().position(|c| c == &vec![0]).unwrap();
        assert!(pos_cycle < pos_zero);
    }
}
