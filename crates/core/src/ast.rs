//! Abstract syntax for Datalog programs.
//!
//! A [`Program`] is a set of relation declarations plus Horn-clause rules.
//! Programs can be written in Soufflé-style text and parsed with
//! [`crate::parser::parse_program`], or assembled programmatically with
//! [`ProgramBuilder`]; either way they are compiled by
//! [`crate::planner`] into the relational-algebra plans the engine executes.
//!
//! Rule bodies are sequences of [`Literal`]s — positive atoms joined as
//! usual, negated atoms (`!Atom(..)`) evaluated under stratified
//! negation-as-failure. A rule head may carry a single [`Aggregate`]
//! (`count`/`min`/`max`/`sum` over one head column), reduced after the
//! rule's stratum completes.

use crate::error::{EngineError, EngineResult};
use std::fmt;

/// A 1-based source position attached to rules and atoms by the parser.
///
/// `Span::NONE` (line and column 0) marks nodes assembled programmatically
/// — diagnostics and errors omit the position in that case, mirroring the
/// convention [`Query::new`] already uses for goals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Span {
    /// 1-based source line (0 = no source position).
    pub line: usize,
    /// 1-based source column (0 = no source position).
    pub column: usize,
}

impl Span {
    /// The "no source position" marker carried by programmatic nodes.
    pub const NONE: Span = Span { line: 0, column: 0 };

    /// Creates a span from a 1-based line and column.
    pub fn new(line: usize, column: usize) -> Span {
        Span { line, column }
    }

    /// Whether this span points at real source (line > 0).
    pub fn is_known(self) -> bool {
        self.line > 0
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}", self.line, self.column)
    }
}

/// A term appearing in an atom or constraint: a named variable or a
/// 32-bit constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A logic variable, e.g. `x`.
    Var(String),
    /// An integer constant.
    Const(u32),
}

impl Term {
    /// Convenience constructor for a variable term.
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }

    /// The variable name, if this term is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

/// A predicate applied to terms, e.g. `Edge(x, y)`.
///
/// Equality ignores the [`Span`]: two atoms with the same relation and
/// terms compare equal whether they were parsed or built in code.
#[derive(Debug, Clone, Eq)]
pub struct Atom {
    /// Relation name.
    pub relation: String,
    /// Argument terms; the length is the relation's arity.
    pub terms: Vec<Term>,
    /// Source position of the relation name ([`Span::NONE`] when the atom
    /// was assembled programmatically). Not part of equality.
    pub span: Span,
}

impl PartialEq for Atom {
    fn eq(&self, other: &Self) -> bool {
        self.relation == other.relation && self.terms == other.terms
    }
}

impl Atom {
    /// Creates an atom with no source position.
    pub fn new(relation: impl Into<String>, terms: Vec<Term>) -> Atom {
        Atom {
            relation: relation.into(),
            terms,
            span: Span::NONE,
        }
    }

    /// Attaches a source position (parser surface).
    #[must_use]
    pub fn with_span(mut self, span: Span) -> Atom {
        self.span = span;
        self
    }

    /// Iterates over the variable names used by this atom.
    pub fn variables(&self) -> impl Iterator<Item = &str> {
        self.terms.iter().filter_map(Term::as_var)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// A body literal: an atom used positively (joined) or negatively
/// (anti-joined against the completed lower stratum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Literal {
    /// A positive occurrence, e.g. `Edge(x, y)`.
    Pos(Atom),
    /// A negated occurrence, e.g. `!Blocked(y)`. Under stratified
    /// semantics the negated relation must be fully computed before any
    /// rule reading it negatively runs, and every variable of the atom
    /// must be bound by a positive literal of the same body.
    Neg(Atom),
}

impl Literal {
    /// The underlying atom, regardless of polarity.
    pub fn atom(&self) -> &Atom {
        match self {
            Literal::Pos(a) | Literal::Neg(a) => a,
        }
    }

    /// Whether this literal is positive.
    pub fn is_positive(&self) -> bool {
        matches!(self, Literal::Pos(_))
    }

    /// Whether this literal is negated.
    pub fn is_negative(&self) -> bool {
        matches!(self, Literal::Neg(_))
    }

    /// The positive atom, if this literal is positive.
    pub fn as_pos(&self) -> Option<&Atom> {
        match self {
            Literal::Pos(a) => Some(a),
            Literal::Neg(_) => None,
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Pos(a) => write!(f, "{a}"),
            Literal::Neg(a) => write!(f, "!{a}"),
        }
    }
}

/// Comparison operators usable in rule-body constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison on two concrete values.
    pub fn eval(self, left: u32, right: u32) -> bool {
        match self {
            CmpOp::Eq => left == right,
            CmpOp::Ne => left != right,
            CmpOp::Lt => left < right,
            CmpOp::Le => left <= right,
            CmpOp::Gt => left > right,
            CmpOp::Ge => left >= right,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A comparison constraint in a rule body, e.g. `x != y`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// Left operand.
    pub left: Term,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right operand.
    pub right: Term,
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op, self.right)
    }
}

/// The reduction applied by a head [`Aggregate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateOp {
    /// Number of distinct aggregated values per group.
    Count,
    /// Minimum aggregated value per group.
    Min,
    /// Maximum aggregated value per group.
    Max,
    /// Saturating sum of distinct aggregated values per group.
    Sum,
}

impl AggregateOp {
    /// The surface-syntax name (`count`, `min`, `max`, `sum`).
    pub fn name(self) -> &'static str {
        match self {
            AggregateOp::Count => "count",
            AggregateOp::Min => "min",
            AggregateOp::Max => "max",
            AggregateOp::Sum => "sum",
        }
    }

    /// Parses a surface-syntax name back into the operator.
    pub fn from_name(name: &str) -> Option<AggregateOp> {
        match name {
            "count" => Some(AggregateOp::Count),
            "min" => Some(AggregateOp::Min),
            "max" => Some(AggregateOp::Max),
            "sum" => Some(AggregateOp::Sum),
            _ => None,
        }
    }
}

impl fmt::Display for AggregateOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A head aggregate, e.g. the `min(d)` in `SP(x, y, min(d)) :- ...`.
///
/// The head term at `column` is `Term::Var(var)`; the remaining head
/// columns form the group key. The reduction runs over the *distinct*
/// (group key, `var`) projections of the rule's body bindings, after the
/// rule's stratum reaches fixpoint — so `count` is set cardinality and
/// `sum` never double-counts a binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aggregate {
    /// The reduction to apply.
    pub op: AggregateOp,
    /// The aggregated body variable.
    pub var: String,
    /// Head column holding the aggregated value.
    pub column: usize,
}

/// A Horn clause: `head :- body literals, constraints.`
///
/// Equality ignores the [`Span`], like [`Atom`] equality does.
#[derive(Debug, Clone, Eq)]
pub struct Rule {
    /// The derived atom.
    pub head: Atom,
    /// Optional head aggregate; when present, `head.terms[aggregate.column]`
    /// is `Term::Var(aggregate.var)` and the rule reduces instead of
    /// projecting that column directly.
    pub aggregate: Option<Aggregate>,
    /// Body literals, in source order.
    pub body: Vec<Literal>,
    /// Comparison constraints.
    pub constraints: Vec<Constraint>,
    /// Source position of the head's relation name ([`Span::NONE`] for
    /// rules assembled programmatically). Not part of equality.
    pub span: Span,
}

impl PartialEq for Rule {
    fn eq(&self, other: &Self) -> bool {
        self.head == other.head
            && self.aggregate == other.aggregate
            && self.body == other.body
            && self.constraints == other.constraints
    }
}

impl Rule {
    /// Creates a rule with the given head, an empty body, and no source
    /// position; push literals and constraints directly afterwards.
    pub fn new(head: Atom) -> Rule {
        Rule {
            head,
            aggregate: None,
            body: Vec::new(),
            constraints: Vec::new(),
            span: Span::NONE,
        }
    }

    /// Iterates over the positive body atoms, in source order.
    pub fn positive_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(Literal::as_pos)
    }

    /// Iterates over the negated body atoms, in source order.
    pub fn negative_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(|l| match l {
            Literal::Neg(a) => Some(a),
            Literal::Pos(_) => None,
        })
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.head.relation)?;
        for (i, t) in self.head.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match &self.aggregate {
                Some(agg) if agg.column == i => write!(f, "{}({})", agg.op, agg.var)?,
                _ => write!(f, "{t}")?,
            }
        }
        write!(f, ") :- ")?;
        let mut first = true;
        for literal in &self.body {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{literal}")?;
            first = false;
        }
        for c in &self.constraints {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        write!(f, ".")
    }
}

/// A goal (point query) attached to a program: `?- Reach(0, y).`
///
/// The goal's constant arguments are the *bound* positions of the
/// adornment the magic-sets rewrite derives
/// ([`crate::analysis::magic_rewrite`]); variable arguments are free.
/// `line`/`column` locate the goal's relation name in the source so
/// query-shape errors ([`EngineError::UnknownQueryRelation`],
/// [`EngineError::QueryArityMismatch`]) can point back at it; goals built
/// programmatically carry `0, 0`, which the error display omits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The goal atom; constants bind, variables stay free.
    pub atom: Atom,
    /// 1-based source line of the goal's relation name (0 = no source).
    pub line: usize,
    /// 1-based source column of the goal's relation name (0 = no source).
    pub column: usize,
}

impl Query {
    /// Creates a goal with no source position (builder surface).
    pub fn new(atom: Atom) -> Query {
        Query {
            atom,
            line: 0,
            column: 0,
        }
    }

    /// The bound/free adornment: `true` for each constant argument.
    pub fn adornment(&self) -> Vec<bool> {
        self.atom
            .terms
            .iter()
            .map(|t| matches!(t, Term::Const(_)))
            .collect()
    }

    /// The goal's constants, in bound-position order — the seed tuple of
    /// the magic relation.
    pub fn bound_constants(&self) -> Vec<u32> {
        self.atom
            .terms
            .iter()
            .filter_map(|t| match t {
                Term::Const(c) => Some(*c),
                Term::Var(_) => None,
            })
            .collect()
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?- {}.", self.atom)
    }
}

/// A relation declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationDecl {
    /// Relation name.
    pub name: String,
    /// Number of columns.
    pub arity: usize,
    /// Whether facts are loaded from the extensional database.
    pub is_input: bool,
    /// Whether the relation is part of the program's output.
    pub is_output: bool,
}

/// A complete Datalog program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// Declared relations.
    pub relations: Vec<RelationDecl>,
    /// Rules, in source order.
    pub rules: Vec<Rule>,
    /// Optional goal (`?- Atom.`) driving goal-directed evaluation via
    /// [`crate::engine::GpulogEngine::run_query`]. A program with a goal
    /// still evaluates the full fixpoint under `run()`.
    pub query: Option<Query>,
}

impl Program {
    /// Looks up a relation declaration by name.
    pub fn relation(&self, name: &str) -> Option<&RelationDecl> {
        self.relations.iter().find(|r| r.name == name)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.relations {
            writeln!(
                f,
                ".decl {}({})",
                r.name,
                (0..r.arity)
                    .map(|i| format!("c{i}: number"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )?;
            if r.is_input {
                writeln!(f, ".input {}", r.name)?;
            }
            if r.is_output {
                writeln!(f, ".output {}", r.name)?;
            }
        }
        for rule in &self.rules {
            writeln!(f, "{rule}")?;
        }
        if let Some(query) = &self.query {
            writeln!(f, "{query}")?;
        }
        Ok(())
    }
}

/// Scoped rule body builder used by [`ProgramBuilder::rule_with`].
///
/// Unlike the chained `rule`/`body`/`end_rule` surface, a `RuleBuilder`
/// only exists while its rule is open, so "body without rule" and
/// "unfinished rule" states are unrepresentable.
#[derive(Debug)]
pub struct RuleBuilder {
    rule: Rule,
}

impl RuleBuilder {
    /// Adds a positive body atom.
    pub fn body(&mut self, relation: impl Into<String>, terms: Vec<Term>) -> &mut Self {
        self.rule
            .body
            .push(Literal::Pos(Atom::new(relation, terms)));
        self
    }

    /// Adds a negated body atom (`!relation(terms)`).
    pub fn body_not(&mut self, relation: impl Into<String>, terms: Vec<Term>) -> &mut Self {
        self.rule
            .body
            .push(Literal::Neg(Atom::new(relation, terms)));
        self
    }

    /// Adds a comparison constraint.
    pub fn constraint(&mut self, left: Term, op: CmpOp, right: Term) -> &mut Self {
        self.rule.constraints.push(Constraint { left, op, right });
        self
    }

    /// Declares the head aggregate: reduce the head column holding
    /// `Term::Var(var)` with `op`.
    ///
    /// # Panics
    ///
    /// Panics if no head term is `Term::Var(var)`.
    pub fn aggregate(&mut self, op: AggregateOp, var: impl Into<String>) -> &mut Self {
        let var = var.into();
        let column = self
            .rule
            .head
            .terms
            .iter()
            .position(|t| t.as_var() == Some(var.as_str()))
            .expect("aggregate variable must appear in the rule head");
        self.rule.aggregate = Some(Aggregate { op, var, column });
        self
    }
}

/// Fluent builder for assembling [`Program`]s in code.
///
/// # Examples
///
/// The chained surface mirrors rule syntax directly; [`ProgramBuilder::build`]
/// reports an unfinished rule as a typed error instead of panicking:
///
/// ```
/// use gpulog::ast::{ProgramBuilder, Term};
///
/// let program = ProgramBuilder::new()
///     .input_relation("Edge", 2)
///     .output_relation("Reach", 2)
///     .rule("Reach", vec![Term::var("x"), Term::var("y")])
///     .body("Edge", vec![Term::var("x"), Term::var("y")])
///     .end_rule()
///     .rule("Reach", vec![Term::var("x"), Term::var("y")])
///     .body("Edge", vec![Term::var("x"), Term::var("z")])
///     .body("Reach", vec![Term::var("z"), Term::var("y")])
///     .end_rule()
///     .build()
///     .unwrap();
/// assert_eq!(program.rules.len(), 2);
/// ```
///
/// Or scope each rule with [`ProgramBuilder::rule_with`], which closes the
/// rule when the closure returns — negation and aggregates included:
///
/// ```
/// use gpulog::ast::{AggregateOp, ProgramBuilder, Term};
///
/// let program = ProgramBuilder::new()
///     .input_relation("Edge", 2)
///     .input_relation("Blocked", 1)
///     .output_relation("Reach", 2)
///     .rule_with("Reach", vec![Term::var("x"), Term::var("y")], |r| {
///         r.body("Edge", vec![Term::var("x"), Term::var("y")])
///             .body_not("Blocked", vec![Term::var("y")]);
///     })
///     .build()
///     .unwrap();
/// assert!(program.rules[0].body[1].is_negative());
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    program: Program,
    current_rule: Option<Rule>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares an extensional (input) relation.
    pub fn input_relation(mut self, name: impl Into<String>, arity: usize) -> Self {
        self.program.relations.push(RelationDecl {
            name: name.into(),
            arity,
            is_input: true,
            is_output: false,
        });
        self
    }

    /// Declares an intensional relation that is part of the output.
    pub fn output_relation(mut self, name: impl Into<String>, arity: usize) -> Self {
        self.program.relations.push(RelationDecl {
            name: name.into(),
            arity,
            is_input: false,
            is_output: true,
        });
        self
    }

    /// Declares an intermediate (neither input nor output) relation.
    pub fn relation(mut self, name: impl Into<String>, arity: usize) -> Self {
        self.program.relations.push(RelationDecl {
            name: name.into(),
            arity,
            is_input: false,
            is_output: false,
        });
        self
    }

    /// Adds a complete rule through a scoped [`RuleBuilder`] closure; the
    /// rule is closed when the closure returns, so no unfinished-rule
    /// state can escape.
    ///
    /// # Panics
    ///
    /// Panics if a chained rule is already open (finish it with
    /// [`ProgramBuilder::end_rule`] first).
    pub fn rule_with(
        mut self,
        head_relation: impl Into<String>,
        head_terms: Vec<Term>,
        f: impl FnOnce(&mut RuleBuilder),
    ) -> Self {
        assert!(
            self.current_rule.is_none(),
            "finish the previous rule first"
        );
        let mut rb = RuleBuilder {
            rule: Rule::new(Atom::new(head_relation, head_terms)),
        };
        f(&mut rb);
        self.program.rules.push(rb.rule);
        self
    }

    /// Starts a rule with the given head.
    ///
    /// # Panics
    ///
    /// Panics if a rule is already open (finish it with
    /// [`ProgramBuilder::end_rule`] first).
    pub fn rule(mut self, head_relation: impl Into<String>, head_terms: Vec<Term>) -> Self {
        assert!(
            self.current_rule.is_none(),
            "finish the previous rule first"
        );
        self.current_rule = Some(Rule::new(Atom::new(head_relation, head_terms)));
        self
    }

    /// Adds a positive body atom to the open rule.
    ///
    /// # Panics
    ///
    /// Panics if no rule is open.
    pub fn body(mut self, relation: impl Into<String>, terms: Vec<Term>) -> Self {
        self.current_rule
            .as_mut()
            .expect("no open rule")
            .body
            .push(Literal::Pos(Atom::new(relation, terms)));
        self
    }

    /// Adds a negated body atom (`!relation(terms)`) to the open rule.
    ///
    /// # Panics
    ///
    /// Panics if no rule is open.
    pub fn body_not(mut self, relation: impl Into<String>, terms: Vec<Term>) -> Self {
        self.current_rule
            .as_mut()
            .expect("no open rule")
            .body
            .push(Literal::Neg(Atom::new(relation, terms)));
        self
    }

    /// Declares the head aggregate of the open rule: reduce the head
    /// column holding `Term::Var(var)` with `op`.
    ///
    /// # Panics
    ///
    /// Panics if no rule is open, or no head term is `Term::Var(var)`.
    pub fn aggregate(mut self, op: AggregateOp, var: impl Into<String>) -> Self {
        let rule = self.current_rule.as_mut().expect("no open rule");
        let var = var.into();
        let column = rule
            .head
            .terms
            .iter()
            .position(|t| t.as_var() == Some(var.as_str()))
            .expect("aggregate variable must appear in the rule head");
        rule.aggregate = Some(Aggregate { op, var, column });
        self
    }

    /// Adds a comparison constraint to the open rule.
    ///
    /// # Panics
    ///
    /// Panics if no rule is open.
    pub fn constraint(mut self, left: Term, op: CmpOp, right: Term) -> Self {
        self.current_rule
            .as_mut()
            .expect("no open rule")
            .constraints
            .push(Constraint { left, op, right });
        self
    }

    /// Attaches the program's goal: `?- relation(terms).` Constant terms
    /// bind the corresponding columns; variable terms stay free. The
    /// query's shape is validated against the declarations when the
    /// program is rewritten (or run), not here, so builder order does not
    /// matter. A later call replaces an earlier goal.
    pub fn query(mut self, relation: impl Into<String>, terms: Vec<Term>) -> Self {
        self.program.query = Some(Query::new(Atom::new(relation, terms)));
        self
    }

    /// Closes the open rule.
    ///
    /// # Panics
    ///
    /// Panics if no rule is open.
    pub fn end_rule(mut self) -> Self {
        let rule = self.current_rule.take().expect("no open rule");
        self.program.rules.push(rule);
        self
    }

    /// Finishes the program, reporting an unfinished chained rule as a
    /// typed [`EngineError::Validation`] instead of panicking.
    pub fn build(self) -> EngineResult<Program> {
        if let Some(rule) = &self.current_rule {
            return Err(EngineError::Validation {
                message: format!(
                    "a rule for {} is still open: close it with end_rule() before build()",
                    rule.head.relation
                ),
            });
        }
        Ok(self.program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_reach_program() {
        let program = ProgramBuilder::new()
            .input_relation("Edge", 2)
            .output_relation("Reach", 2)
            .rule("Reach", vec![Term::var("x"), Term::var("y")])
            .body("Edge", vec![Term::var("x"), Term::var("y")])
            .end_rule()
            .rule("Reach", vec![Term::var("x"), Term::var("y")])
            .body("Edge", vec![Term::var("x"), Term::var("z")])
            .body("Reach", vec![Term::var("z"), Term::var("y")])
            .end_rule()
            .build()
            .unwrap();
        assert_eq!(program.relations.len(), 2);
        assert_eq!(program.rules.len(), 2);
        assert!(program.relation("Edge").unwrap().is_input);
        assert!(program.relation("Reach").unwrap().is_output);
        assert!(program.relation("Missing").is_none());
        assert!(program
            .rules
            .iter()
            .all(|r| r.body.iter().all(Literal::is_positive)));
    }

    #[test]
    fn rule_with_builds_negation_and_aggregates() {
        let program = ProgramBuilder::new()
            .input_relation("Edge", 2)
            .input_relation("Blocked", 1)
            .output_relation("Deg", 2)
            .rule_with("Deg", vec![Term::var("x"), Term::var("y")], |r| {
                r.body("Edge", vec![Term::var("x"), Term::var("y")])
                    .body_not("Blocked", vec![Term::var("y")])
                    .aggregate(AggregateOp::Count, "y");
            })
            .build()
            .unwrap();
        let rule = &program.rules[0];
        assert!(rule.body[0].is_positive());
        assert!(rule.body[1].is_negative());
        assert_eq!(rule.body[1].atom().relation, "Blocked");
        let agg = rule.aggregate.as_ref().unwrap();
        assert_eq!(agg.op, AggregateOp::Count);
        assert_eq!(agg.var, "y");
        assert_eq!(agg.column, 1);
    }

    #[test]
    fn build_reports_open_rule_as_typed_error() {
        let err = ProgramBuilder::new()
            .output_relation("R", 1)
            .rule("R", vec![Term::var("x")])
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::Validation { .. }));
        assert!(err.to_string().contains("still open"));
    }

    #[test]
    fn display_round_trip_is_parseable_shape() {
        let program = ProgramBuilder::new()
            .input_relation("Edge", 2)
            .output_relation("SG", 2)
            .rule("SG", vec![Term::var("x"), Term::var("y")])
            .body("Edge", vec![Term::var("p"), Term::var("x")])
            .body("Edge", vec![Term::var("p"), Term::var("y")])
            .constraint(Term::var("x"), CmpOp::Ne, Term::var("y"))
            .end_rule()
            .build()
            .unwrap();
        let text = program.to_string();
        assert!(text.contains("SG(x, y) :- Edge(p, x), Edge(p, y), x != y."));
        assert!(text.contains(".decl Edge"));
    }

    #[test]
    fn display_prints_negation_and_aggregates() {
        let program = ProgramBuilder::new()
            .input_relation("PathLen", 3)
            .output_relation("SP", 3)
            .rule_with(
                "SP",
                vec![Term::var("x"), Term::var("y"), Term::var("d")],
                |r| {
                    r.body(
                        "PathLen",
                        vec![Term::var("x"), Term::var("y"), Term::var("d")],
                    )
                    .aggregate(AggregateOp::Min, "d");
                },
            )
            .build()
            .unwrap();
        let text = program.rules[0].to_string();
        assert_eq!(text, "SP(x, y, min(d)) :- PathLen(x, y, d).");

        let neg = ProgramBuilder::new()
            .input_relation("Edge", 2)
            .input_relation("Blocked", 1)
            .output_relation("Reach", 2)
            .rule_with("Reach", vec![Term::var("x"), Term::var("y")], |r| {
                r.body("Edge", vec![Term::var("x"), Term::var("y")])
                    .body_not("Blocked", vec![Term::var("y")]);
            })
            .build()
            .unwrap();
        assert_eq!(
            neg.rules[0].to_string(),
            "Reach(x, y) :- Edge(x, y), !Blocked(y)."
        );
    }

    #[test]
    fn builder_attaches_a_goal_and_display_prints_it() {
        let program = ProgramBuilder::new()
            .input_relation("Edge", 2)
            .output_relation("Reach", 2)
            .rule("Reach", vec![Term::var("x"), Term::var("y")])
            .body("Edge", vec![Term::var("x"), Term::var("y")])
            .end_rule()
            .query("Reach", vec![Term::Const(3), Term::var("y")])
            .build()
            .unwrap();
        let query = program.query.as_ref().unwrap();
        assert_eq!(query.adornment(), vec![true, false]);
        assert_eq!(query.bound_constants(), vec![3]);
        assert_eq!((query.line, query.column), (0, 0));
        assert!(program.to_string().contains("?- Reach(3, y)."));
    }

    #[test]
    fn aggregate_op_names_round_trip() {
        for op in [
            AggregateOp::Count,
            AggregateOp::Min,
            AggregateOp::Max,
            AggregateOp::Sum,
        ] {
            assert_eq!(AggregateOp::from_name(op.name()), Some(op));
        }
        assert_eq!(AggregateOp::from_name("avg"), None);
    }

    #[test]
    fn cmp_op_eval_covers_all_operators() {
        assert!(CmpOp::Eq.eval(3, 3));
        assert!(CmpOp::Ne.eval(3, 4));
        assert!(CmpOp::Lt.eval(3, 4));
        assert!(CmpOp::Le.eval(4, 4));
        assert!(CmpOp::Gt.eval(5, 4));
        assert!(CmpOp::Ge.eval(4, 4));
        assert!(!CmpOp::Lt.eval(4, 4));
    }

    #[test]
    fn atom_variables_skips_constants() {
        let atom = Atom::new("R", vec![Term::var("a"), Term::Const(3), Term::var("b")]);
        let vars: Vec<&str> = atom.variables().collect();
        assert_eq!(vars, vec!["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "no open rule")]
    fn body_without_rule_panics() {
        let _ = ProgramBuilder::new().body("Edge", vec![]);
    }
}
