//! The constraint solver implementation.

use std::collections::HashSet;
use std::fmt;
use std::rc::Rc;

/// Identifier of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Dense index of this variable.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A complete assignment: `values[var.index()]` is the chosen value.
pub type Solution = Vec<i64>;

/// Shared n-ary predicate over a constraint's variables.
pub type PredFn = Rc<dyn Fn(&[i64]) -> bool>;

/// A constraint over decision variables.
#[derive(Clone)]
pub enum Constraint {
    /// Binary table constraint: `(a, b)` must be one of `allowed`.
    Table2 {
        a: VarId,
        b: VarId,
        allowed: Rc<HashSet<(i64, i64)>>,
    },
    /// N-ary predicate. Checked eagerly whenever at most one of `vars` is
    /// unassigned (forward checking), and finally on full assignments.
    Pred {
        vars: Vec<VarId>,
        name: String,
        f: PredFn,
    },
    /// A forbidden complete combination over the listed variables (blocking
    /// clause for solution enumeration).
    Nogood { pairs: Vec<(VarId, i64)> },
}

impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Table2 { a, b, allowed } => f
                .debug_struct("Table2")
                .field("a", a)
                .field("b", b)
                .field("allowed", &allowed.len())
                .finish(),
            Constraint::Pred { vars, name, .. } => f
                .debug_struct("Pred")
                .field("vars", vars)
                .field("name", name)
                .finish(),
            Constraint::Nogood { pairs } => f.debug_struct("Nogood").field("pairs", pairs).finish(),
        }
    }
}

/// A finite-domain constraint solver with solution enumeration.
#[derive(Debug, Default)]
pub struct Solver {
    domains: Vec<Vec<i64>>,
    constraints: Vec<Constraint>,
    /// constraints watching each variable
    watches: Vec<Vec<usize>>,
    /// search statistics: nodes explored in the last solve call
    nodes_explored: u64,
    /// optional cap on nodes explored per solve call (0 = unlimited)
    node_budget: u64,
}

impl Solver {
    /// An empty problem.
    pub fn new() -> Solver {
        Solver::default()
    }

    /// Adds a variable with the given domain (order = value try order).
    pub fn add_var(&mut self, domain: Vec<i64>) -> VarId {
        self.domains.push(domain);
        self.watches.push(Vec::new());
        VarId(self.domains.len() - 1)
    }

    /// The current domain of a variable.
    pub fn domain(&self, v: VarId) -> &[i64] {
        &self.domains[v.0]
    }

    /// Search nodes explored by the most recent `solve*` call.
    pub fn nodes_explored(&self) -> u64 {
        self.nodes_explored
    }

    /// Caps the search effort per `solve*` call; when the budget is hit the
    /// solver returns whatever solutions it found so far (incomplete
    /// enumeration, never incorrect solutions). `0` means unlimited.
    pub fn set_node_budget(&mut self, budget: u64) {
        self.node_budget = budget;
    }

    fn push_constraint(&mut self, c: Constraint) {
        let idx = self.constraints.len();
        let vars: Vec<VarId> = match &c {
            Constraint::Table2 { a, b, .. } => vec![*a, *b],
            Constraint::Pred { vars, .. } => vars.clone(),
            Constraint::Nogood { pairs } => pairs.iter().map(|&(v, _)| v).collect(),
        };
        for v in vars {
            self.watches[v.0].push(idx);
        }
        self.constraints.push(c);
    }

    /// Adds a binary table constraint.
    pub fn table2<I>(&mut self, a: VarId, b: VarId, allowed: I)
    where
        I: IntoIterator<Item = (i64, i64)>,
    {
        self.push_constraint(Constraint::Table2 {
            a,
            b,
            allowed: Rc::new(allowed.into_iter().collect()),
        });
    }

    /// Adds an n-ary predicate constraint.
    pub fn predicate<F>(&mut self, vars: Vec<VarId>, name: impl Into<String>, f: F)
    where
        F: Fn(&[i64]) -> bool + 'static,
    {
        self.push_constraint(Constraint::Pred {
            vars,
            name: name.into(),
            f: Rc::new(f),
        });
    }

    /// Convenience: `a != b`.
    pub fn not_equal(&mut self, a: VarId, b: VarId) {
        self.predicate(vec![a, b], "neq", |vals| vals[0] != vals[1]);
    }

    /// Convenience: `a == b`.
    pub fn equal(&mut self, a: VarId, b: VarId) {
        self.predicate(vec![a, b], "eq", |vals| vals[0] == vals[1]);
    }

    /// Forbids one complete combination (Algorithm 2's
    /// `Rules ← Rules ∧ ¬S`).
    pub fn block_solution(&mut self, solution: &Solution) {
        let pairs: Vec<(VarId, i64)> = solution
            .iter()
            .enumerate()
            .map(|(i, &v)| (VarId(i), v))
            .collect();
        self.push_constraint(Constraint::Nogood { pairs });
    }

    /// Checks a constraint against a partial assignment; `None` entries are
    /// unassigned. Returns false only if *definitely* violated.
    fn consistent(&self, c: &Constraint, assign: &[Option<i64>]) -> bool {
        match c {
            Constraint::Table2 { a, b, allowed } => match (assign[a.0], assign[b.0]) {
                (Some(x), Some(y)) => allowed.contains(&(x, y)),
                (Some(x), None) => self
                    .domains_current(b, assign)
                    .iter()
                    .any(|&y| allowed.contains(&(x, y))),
                (None, Some(y)) => self
                    .domains_current(a, assign)
                    .iter()
                    .any(|&x| allowed.contains(&(x, y))),
                (None, None) => true,
            },
            Constraint::Pred { vars, f, .. } => {
                let unassigned: Vec<usize> = vars
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| assign[v.0].is_none())
                    .map(|(i, _)| i)
                    .collect();
                match unassigned.len() {
                    0 => {
                        let vals: Vec<i64> = vars
                            .iter()
                            .map(|v| assign[v.0].expect("assigned"))
                            .collect();
                        f(&vals)
                    }
                    1 => {
                        // forward check: some value of the free var must work
                        let free_pos = unassigned[0];
                        let free_var = vars[free_pos];
                        let mut vals: Vec<i64> =
                            vars.iter().map(|v| assign[v.0].unwrap_or(0)).collect();
                        self.domains[free_var.0].iter().any(|&candidate| {
                            vals[free_pos] = candidate;
                            f(&vals)
                        })
                    }
                    _ => true,
                }
            }
            Constraint::Nogood { pairs } => {
                // violated only if every pair matches
                !pairs.iter().all(|&(v, val)| assign[v.0] == Some(val))
            }
        }
    }

    fn domains_current(&self, v: &VarId, _assign: &[Option<i64>]) -> &[i64] {
        &self.domains[v.0]
    }

    fn check_var_constraints(&self, v: VarId, assign: &[Option<i64>]) -> bool {
        self.watches[v.0]
            .iter()
            .all(|&ci| self.consistent(&self.constraints[ci], assign))
    }

    /// Finds one solution, if any.
    pub fn solve(&mut self) -> Option<Solution> {
        self.solve_up_to(1).into_iter().next()
    }

    /// Enumerates up to `max_solutions` solutions (Algorithm 2's loop).
    /// Deterministic: variables by MRV (ties by index), values in domain
    /// order.
    pub fn solve_up_to(&mut self, max_solutions: usize) -> Vec<Solution> {
        let n = self.domains.len();
        let mut assign: Vec<Option<i64>> = vec![None; n];
        let mut out = Vec::new();
        self.nodes_explored = 0;
        self.dfs(&mut assign, &mut out, max_solutions);
        out
    }

    fn dfs(
        &mut self,
        assign: &mut Vec<Option<i64>>,
        out: &mut Vec<Solution>,
        max_solutions: usize,
    ) -> bool {
        if out.len() >= max_solutions {
            return true; // stop
        }
        if self.node_budget > 0 && self.nodes_explored >= self.node_budget {
            return true; // budget exhausted: stop with what we have
        }
        self.nodes_explored += 1;
        // MRV: pick the unassigned variable with the fewest viable values
        let mut best: Option<(usize, usize)> = None; // (viable count, var)
        for v in 0..assign.len() {
            if assign[v].is_some() {
                continue;
            }
            let viable = self.domains[v]
                .clone()
                .into_iter()
                .filter(|&val| {
                    assign[v] = Some(val);
                    let ok = self.check_var_constraints(VarId(v), assign);
                    assign[v] = None;
                    ok
                })
                .count();
            if best.map(|(c, _)| viable < c).unwrap_or(true) {
                best = Some((viable, v));
                if viable == 0 {
                    break;
                }
            }
        }
        let Some((viable, var)) = best else {
            // fully assigned: record solution
            let sol: Solution = assign.iter().map(|v| v.expect("full")).collect();
            out.push(sol);
            return out.len() >= max_solutions;
        };
        if viable == 0 {
            return false;
        }
        for val in self.domains[var].clone() {
            assign[var] = Some(val);
            if self.check_var_constraints(VarId(var), assign)
                && self.dfs(assign, out, max_solutions)
            {
                assign[var] = None;
                return true;
            }
            assign[var] = None;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_satisfiable() {
        let mut s = Solver::new();
        let a = s.add_var(vec![1, 2, 3]);
        let b = s.add_var(vec![1, 2, 3]);
        s.predicate(vec![a, b], "sum5", |v| v[0] + v[1] == 5);
        let sol = s.solve().expect("satisfiable");
        assert_eq!(sol[a.index()] + sol[b.index()], 5);
    }

    #[test]
    fn unsat_detected() {
        let mut s = Solver::new();
        let a = s.add_var(vec![0, 1]);
        let b = s.add_var(vec![0, 1]);
        s.not_equal(a, b);
        s.equal(a, b);
        assert!(s.solve().is_none());
    }

    #[test]
    fn enumeration_counts_all_solutions() {
        // x in 0..3, y in 0..3, x < y: 3 solutions
        let mut s = Solver::new();
        let x = s.add_var(vec![0, 1, 2]);
        let y = s.add_var(vec![0, 1, 2]);
        s.predicate(vec![x, y], "lt", |v| v[0] < v[1]);
        let sols = s.solve_up_to(100);
        assert_eq!(sols.len(), 3);
        // all distinct
        let set: HashSet<Vec<i64>> = sols.into_iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn blocking_excludes_previous_solution() {
        let mut s = Solver::new();
        let x = s.add_var(vec![0, 1]);
        let first = s.solve().unwrap();
        s.block_solution(&first);
        let second = s.solve().unwrap();
        assert_ne!(first, second);
        s.block_solution(&second);
        assert!(s.solve().is_none());
        let _ = x;
    }

    #[test]
    fn n_queens_4_has_two_solutions() {
        let mut s = Solver::new();
        let queens: Vec<VarId> = (0..4).map(|_| s.add_var(vec![0, 1, 2, 3])).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                let (qi, qj) = (queens[i], queens[j]);
                let d = (j - i) as i64;
                s.predicate(vec![qi, qj], "no-attack", move |v| {
                    v[0] != v[1] && (v[0] - v[1]).abs() != d
                });
            }
        }
        let sols = s.solve_up_to(10);
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn table_constraints_propagate() {
        let mut s = Solver::new();
        let a = s.add_var(vec![0, 1, 2]);
        let b = s.add_var(vec![0, 1, 2]);
        let c = s.add_var(vec![0, 1, 2]);
        s.table2(a, b, [(0, 1), (1, 2)]);
        s.table2(b, c, [(1, 0), (2, 1)]);
        let sols = s.solve_up_to(10);
        assert_eq!(sols.len(), 2);
        for sol in sols {
            assert!(
                (sol[a.0] == 0 && sol[b.0] == 1 && sol[c.0] == 0)
                    || (sol[a.0] == 1 && sol[b.0] == 2 && sol[c.0] == 1)
            );
        }
    }

    #[test]
    fn pigeonhole_unsat() {
        // 4 pigeons, 3 holes, all different: unsat
        let mut s = Solver::new();
        let vars: Vec<VarId> = (0..4).map(|_| s.add_var(vec![0, 1, 2])).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                s.not_equal(vars[i], vars[j]);
            }
        }
        assert!(s.solve().is_none());
    }

    #[test]
    fn graph_coloring_3colors() {
        // 5-cycle is 3-colorable but not 2-colorable
        let mut s2 = Solver::new();
        let v2: Vec<VarId> = (0..5).map(|_| s2.add_var(vec![0, 1])).collect();
        for i in 0..5 {
            s2.not_equal(v2[i], v2[(i + 1) % 5]);
        }
        assert!(s2.solve().is_none(), "odd cycle not 2-colorable");

        let mut s3 = Solver::new();
        let v3: Vec<VarId> = (0..5).map(|_| s3.add_var(vec![0, 1, 2])).collect();
        for i in 0..5 {
            s3.not_equal(v3[i], v3[(i + 1) % 5]);
        }
        let sol = s3.solve().expect("3-colorable");
        for i in 0..5 {
            assert_ne!(sol[v3[i].0], sol[v3[(i + 1) % 5].0]);
        }
    }

    #[test]
    fn enumeration_is_deterministic() {
        let build = || {
            let mut s = Solver::new();
            let a = s.add_var(vec![0, 1, 2]);
            let b = s.add_var(vec![0, 1, 2]);
            s.predicate(vec![a, b], "neq", |v| v[0] != v[1]);
            s
        };
        let s1 = build().solve_up_to(100);
        let s2 = build().solve_up_to(100);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 6);
    }

    #[test]
    fn node_budget_truncates_enumeration() {
        let mut s = Solver::new();
        let vars: Vec<VarId> = (0..6).map(|_| s.add_var((0..6).collect())).collect();
        let _ = vars;
        s.set_node_budget(10);
        let sols = s.solve_up_to(100_000);
        assert!(s.nodes_explored() <= 10);
        // truncated, but any returned solutions are complete assignments
        for sol in &sols {
            assert_eq!(sol.len(), 6);
        }
    }

    #[test]
    fn mrv_explores_fewer_nodes_than_domain_product() {
        let mut s = Solver::new();
        let vars: Vec<VarId> = (0..8).map(|_| s.add_var((0..8).collect())).collect();
        for i in 0..8 {
            for j in (i + 1)..8 {
                s.not_equal(vars[i], vars[j]);
            }
        }
        let sol = s.solve();
        assert!(sol.is_some());
        assert!(
            s.nodes_explored() < 100_000,
            "explored {} nodes",
            s.nodes_explored()
        );
    }
}
