//! Plan invariant validation: does a logical plan resolve, does a
//! physical plan respect its catalog's index availability, and does the
//! physical plan implement exactly the logical plan's semantics?
//!
//! [`mmdb_core`'s] `QueryBuilder::run` routes every query through
//! [`check_plans`] when built with `--features check`, so a planner
//! regression (dropped filter, duplicated join, infeasible method)
//! surfaces as a named invariant violation instead of a wrong answer.

use crate::report::Report;
use mmdb_exec::plan::{LogicalPlan, PlanCatalog, PlanNode, PlanNodeKind, PlannedQuery};
use mmdb_exec::{JoinMethod, Predicate, SelectPath};

const STRUCTURE: &str = "query plan";

/// Check that every reference in a logical plan resolves against the
/// catalog and respects written-order binding.
#[must_use]
pub fn check_logical(logical: &LogicalPlan, catalog: &dyn PlanCatalog) -> Report {
    let mut report = Report::new();
    let bound = logical.bound_tables();
    for t in &bound {
        if catalog.cardinality(t).is_none() {
            report.fail(
                STRUCTURE,
                format!("logical table {t}"),
                "every bound table exists in the catalog",
                "cardinality() returned None".to_string(),
            );
        }
    }
    for (t, a, _) in logical.filters() {
        if !bound.iter().any(|b| b == t) {
            report.fail(
                STRUCTURE,
                format!("logical filter {t}.{a}"),
                "filters reference bound tables",
                format!("table {t} is not in the pipeline"),
            );
        }
        if catalog.resolve_attr(t, a).is_none() {
            report.fail(
                STRUCTURE,
                format!("logical filter {t}.{a}"),
                "filtered attributes resolve",
                "resolve_attr() returned None".to_string(),
            );
        }
    }
    for (src, oa, inner, ia) in logical.joins() {
        for (t, a) in [(src, oa), (inner, ia)] {
            if catalog.resolve_attr(t, a).is_none() {
                report.fail(
                    STRUCTURE,
                    format!("logical join {src}.{oa} = {inner}.{ia}"),
                    "join attributes resolve",
                    format!("{t}.{a} did not resolve"),
                );
            }
        }
    }
    if let Some(cols) = logical.projection() {
        for (t, a) in cols {
            if !bound.iter().any(|b| b == t) {
                report.fail(
                    STRUCTURE,
                    format!("projection {t}.{a}"),
                    "projected tables are bound",
                    format!("table {t} is not in the pipeline"),
                );
            } else if catalog.resolve_attr(t, a).is_none() {
                report.fail(
                    STRUCTURE,
                    format!("projection {t}.{a}"),
                    "projected attributes resolve",
                    "resolve_attr() returned None".to_string(),
                );
            }
        }
    }
    report
}

/// Check a physical plan in isolation: pre-order contiguous ids, sane
/// estimates, temp-list column discipline, and that every chosen access
/// path and join method is actually feasible under the catalog's index
/// availability.
#[must_use]
pub fn check_physical(planned: &PlannedQuery, catalog: &dyn PlanCatalog) -> Report {
    let mut report = Report::new();

    // Ids must be assigned pre-order and cover 0..node_count exactly.
    let mut ids = Vec::new();
    collect_ids(&planned.root, &mut ids);
    if ids.len() != planned.node_count || ids.iter().enumerate().any(|(i, id)| i != *id) {
        report.fail(
            STRUCTURE,
            "physical tree".to_string(),
            "node ids are pre-order contiguous from the root",
            format!(
                "ids in pre-order: {ids:?}, node_count {}",
                planned.node_count
            ),
        );
    }

    if planned.tables.is_empty() {
        report.fail(
            STRUCTURE,
            "physical tree".to_string(),
            "at least the base table is bound",
            "tables list is empty".to_string(),
        );
    }
    for t in &planned.tables {
        if catalog.cardinality(t).is_none() {
            report.fail(
                STRUCTURE,
                format!("bound table {t}"),
                "every bound table exists in the catalog",
                "cardinality() returned None".to_string(),
            );
        }
    }

    walk_physical(&planned.root, planned, catalog, &mut report);
    report
}

/// Cross-check: the physical plan implements exactly the logical plan —
/// same base, same table set, every join and filter exactly once, same
/// projection and distinct semantics. Runs [`check_logical`] and
/// [`check_physical`] first and merges their findings.
#[must_use]
pub fn check_plans(
    logical: &LogicalPlan,
    planned: &PlannedQuery,
    catalog: &dyn PlanCatalog,
) -> Report {
    let mut report = check_logical(logical, catalog);
    report.merge(check_physical(planned, catalog));

    if planned.tables.first().map(String::as_str) != Some(logical.base()) {
        report.fail(
            STRUCTURE,
            "binding order".to_string(),
            "the base table binds temp-list column 0",
            format!(
                "logical base {}, physical tables {:?}",
                logical.base(),
                planned.tables
            ),
        );
    }
    let mut logical_tables = logical.bound_tables();
    let mut physical_tables = planned.tables.clone();
    logical_tables.sort();
    physical_tables.sort();
    if logical_tables != physical_tables {
        report.fail(
            STRUCTURE,
            "binding order".to_string(),
            "physical binds exactly the logical table set",
            format!("logical {logical_tables:?}, physical {physical_tables:?}"),
        );
    }

    // Every logical join appears exactly once, attributes intact
    // (reordering may permute them, never drop or duplicate).
    let mut phys_joins = Vec::new();
    collect_joins(&planned.root, &mut phys_joins);
    for (src, oa, inner, ia) in logical.joins() {
        let n = phys_joins
            .iter()
            .filter(|(s, o, i, a)| *s == src && *o == oa && *i == inner && *a == ia)
            .count();
        if n != 1 {
            report.fail(
                STRUCTURE,
                format!("join {src}.{oa} = {inner}.{ia}"),
                "each logical join appears exactly once in the physical plan",
                format!("found {n} physical occurrences"),
            );
        }
    }
    if phys_joins.len() != logical.joins().len() {
        report.fail(
            STRUCTURE,
            "physical joins".to_string(),
            "the physical plan invents no joins",
            format!(
                "logical has {}, physical has {}",
                logical.joins().len(),
                phys_joins.len()
            ),
        );
    }

    // Every logical filter survives as exactly one Select or PostFilter.
    let mut phys_filters = Vec::new();
    collect_filters(&planned.root, &mut phys_filters);
    for (t, a, pred) in logical.filters() {
        let n = phys_filters
            .iter()
            .filter(|(pt, pa, pp)| *pt == t && *pa == a && format!("{pp}") == format!("{pred}"))
            .count();
        if n != 1 {
            report.fail(
                STRUCTURE,
                format!("filter {t}.{a}"),
                "each logical filter appears exactly once in the physical plan",
                format!("found {n} physical occurrences"),
            );
        }
    }
    if phys_filters.len() != logical.filters().len() {
        report.fail(
            STRUCTURE,
            "physical filters".to_string(),
            "the physical plan invents no filters",
            format!(
                "logical has {}, physical has {}",
                logical.filters().len(),
                phys_filters.len()
            ),
        );
    }

    if planned.distinct != logical.is_distinct() {
        report.fail(
            STRUCTURE,
            "distinct".to_string(),
            "physical distinct flag matches the logical plan",
            format!(
                "logical {}, physical {}",
                logical.is_distinct(),
                planned.distinct
            ),
        );
    }
    if let Some(cols) = logical.projection() {
        if planned.columns != cols {
            report.fail(
                STRUCTURE,
                "projection".to_string(),
                "physical output columns match the logical projection",
                format!("logical {cols:?}, physical {:?}", planned.columns),
            );
        }
    }
    report
}

fn collect_ids(node: &PlanNode, out: &mut Vec<usize>) {
    out.push(node.id);
    for c in &node.children {
        collect_ids(c, out);
    }
}

fn collect_joins<'p>(node: &'p PlanNode, out: &mut Vec<(&'p str, &'p str, &'p str, &'p str)>) {
    if let PlanNodeKind::Join {
        source_table,
        outer_attr,
        inner_table,
        inner_attr,
        ..
    } = &node.kind
    {
        out.push((source_table, outer_attr, inner_table, inner_attr));
    }
    for c in &node.children {
        collect_joins(c, out);
    }
}

fn collect_filters<'p>(node: &'p PlanNode, out: &mut Vec<(&'p str, &'p str, &'p Predicate)>) {
    match &node.kind {
        PlanNodeKind::Select {
            table, attr, pred, ..
        }
        | PlanNodeKind::PostFilter {
            table, attr, pred, ..
        } => out.push((table, attr, pred)),
        _ => {}
    }
    for c in &node.children {
        collect_filters(c, out);
    }
}

#[allow(clippy::too_many_lines)]
fn walk_physical(
    node: &PlanNode,
    planned: &PlannedQuery,
    catalog: &dyn PlanCatalog,
    report: &mut Report,
) {
    let loc = |what: &str| format!("node {} ({what})", node.id);
    if !node.est_rows.is_finite()
        || node.est_rows < 0.0
        || !node.est_comparisons.is_finite()
        || node.est_comparisons < 0.0
    {
        report.fail(
            STRUCTURE,
            loc("estimates"),
            "estimates are finite and non-negative",
            format!(
                "est_rows {}, est_comparisons {}",
                node.est_rows, node.est_comparisons
            ),
        );
    }
    match &node.kind {
        PlanNodeKind::Scan { table } => {
            if !node.children.is_empty() {
                report.fail(
                    STRUCTURE,
                    loc("scan"),
                    "scans are leaves",
                    format!("{} children", node.children.len()),
                );
            }
            if !planned.tables.iter().any(|t| t == table) {
                report.fail(
                    STRUCTURE,
                    loc("scan"),
                    "scanned tables are bound",
                    format!("table {table} missing from {:?}", planned.tables),
                );
            }
        }
        PlanNodeKind::Select {
            table,
            attr,
            pred,
            path,
        } => {
            if !node.children.is_empty() {
                report.fail(
                    STRUCTURE,
                    loc("select"),
                    "selects are leaves",
                    format!("{} children", node.children.len()),
                );
            }
            match catalog.resolve_attr(table, attr) {
                None => report.fail(
                    STRUCTURE,
                    loc("select"),
                    "selected attributes resolve",
                    format!("{table}.{attr} did not resolve"),
                ),
                Some(info) => {
                    let feasible = match path {
                        SelectPath::HashLookup => {
                            info.avail.hash && matches!(pred, Predicate::Eq(_))
                        }
                        SelectPath::TreeLookup => info.avail.ttree,
                        SelectPath::SequentialScan => true,
                    };
                    if !feasible {
                        report.fail(
                            STRUCTURE,
                            loc("select"),
                            "the chosen access path is feasible",
                            format!(
                                "{path:?} over {table}.{attr} (hash {}, ttree {}, pred {pred})",
                                info.avail.hash, info.avail.ttree
                            ),
                        );
                    }
                }
            }
        }
        PlanNodeKind::PostFilter {
            table,
            attr,
            src_col,
            ..
        } => {
            if node.children.len() != 1 {
                report.fail(
                    STRUCTURE,
                    loc("post-filter"),
                    "post-filters have exactly one input",
                    format!("{} children", node.children.len()),
                );
            }
            if planned.tables.get(*src_col).map(String::as_str) != Some(table.as_str()) {
                report.fail(
                    STRUCTURE,
                    loc("post-filter"),
                    "src_col addresses the filtered table's temp-list column",
                    format!("src_col {src_col} vs tables {:?}", planned.tables),
                );
            }
            if catalog.resolve_attr(table, attr).is_none() {
                report.fail(
                    STRUCTURE,
                    loc("post-filter"),
                    "filtered attributes resolve",
                    format!("{table}.{attr} did not resolve"),
                );
            }
        }
        PlanNodeKind::Join {
            method,
            source_table,
            outer_attr,
            inner_table,
            inner_attr,
            src_col,
            ..
        } => {
            if planned.tables.get(*src_col).map(String::as_str) != Some(source_table.as_str()) {
                report.fail(
                    STRUCTURE,
                    loc("join"),
                    "src_col addresses the join source's temp-list column",
                    format!("src_col {src_col} vs tables {:?}", planned.tables),
                );
            }
            // Tid-consuming methods materialise the inner side as a
            // second child; index/pointer methods must not.
            let wants_inner = matches!(
                method,
                JoinMethod::HashJoin | JoinMethod::SortMerge | JoinMethod::NestedLoops
            );
            let expect = if wants_inner { 2 } else { 1 };
            if node.children.len() != expect {
                report.fail(
                    STRUCTURE,
                    loc("join"),
                    "join arity matches its method's inner-access shape",
                    format!("{method:?} has {} children", node.children.len()),
                );
            }
            let outer = catalog.resolve_attr(source_table, outer_attr);
            let inner = catalog.resolve_attr(inner_table, inner_attr);
            match (outer, inner) {
                (Some(o), Some(i)) => {
                    let feasible = match method {
                        JoinMethod::Precomputed => o.pointer,
                        JoinMethod::TreeMerge => o.avail.ttree && i.avail.ttree,
                        JoinMethod::TreeJoin => i.avail.ttree,
                        JoinMethod::HashJoin | JoinMethod::SortMerge | JoinMethod::NestedLoops => {
                            true
                        }
                    };
                    if !feasible {
                        report.fail(
                            STRUCTURE,
                            loc("join"),
                            "the chosen join method is feasible under index availability",
                            format!(
                                "{method:?} on {source_table}.{outer_attr} = \
                                 {inner_table}.{inner_attr}"
                            ),
                        );
                    }
                }
                _ => report.fail(
                    STRUCTURE,
                    loc("join"),
                    "join attributes resolve",
                    format!("{source_table}.{outer_attr} = {inner_table}.{inner_attr}"),
                ),
            }
        }
        PlanNodeKind::Project { cols } => {
            if node.children.len() != 1 {
                report.fail(
                    STRUCTURE,
                    loc("project"),
                    "projections have exactly one input",
                    format!("{} children", node.children.len()),
                );
            }
            if *cols != planned.columns {
                report.fail(
                    STRUCTURE,
                    loc("project"),
                    "the projection node carries the plan's output columns",
                    format!("node {cols:?}, plan {:?}", planned.columns),
                );
            }
            for (t, a) in cols {
                if !planned.tables.iter().any(|b| b == t) {
                    report.fail(
                        STRUCTURE,
                        loc("project"),
                        "projected tables are bound",
                        format!("table {t} missing from {:?}", planned.tables),
                    );
                } else if catalog.resolve_attr(t, a).is_none() {
                    report.fail(
                        STRUCTURE,
                        loc("project"),
                        "projected attributes resolve",
                        format!("{t}.{a} did not resolve"),
                    );
                }
            }
        }
        PlanNodeKind::Distinct => {
            if node.children.len() != 1 {
                report.fail(
                    STRUCTURE,
                    loc("distinct"),
                    "distinct has exactly one input",
                    format!("{} children", node.children.len()),
                );
            }
            if !planned.distinct {
                report.fail(
                    STRUCTURE,
                    loc("distinct"),
                    "a distinct node implies the plan's distinct flag",
                    "planned.distinct is false".to_string(),
                );
            }
        }
    }
    for c in &node.children {
        walk_physical(c, planned, catalog, report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_exec::plan::{MemCatalog, Planner, PlannerOptions};

    fn catalog() -> MemCatalog {
        let mut cat = MemCatalog::new();
        cat.table("emp", 1000, &["ename", "age", "dept_id"])
            .with_ttree("emp", "age")
            .with_ttree("emp", "dept_id");
        cat.table("dept", 30, &["dname", "id"])
            .with_ttree("dept", "id");
        cat
    }

    fn workload() -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(LogicalPlan::Join {
                input: Box::new(LogicalPlan::Filter {
                    input: Box::new(LogicalPlan::Scan {
                        table: "emp".to_string(),
                    }),
                    table: "emp".to_string(),
                    attr: "age".to_string(),
                    pred: Predicate::greater(65i64.into()),
                }),
                source_table: "emp".to_string(),
                outer_attr: "dept_id".to_string(),
                inner_table: "dept".to_string(),
                inner_attr: "id".to_string(),
            }),
            cols: vec![("emp".to_string(), "ename".to_string())],
        }
    }

    #[test]
    fn planner_output_passes_all_checks() {
        let cat = catalog();
        let logical = workload();
        for options in [
            PlannerOptions::default(),
            PlannerOptions::naive(),
            PlannerOptions {
                forced_join: Some(JoinMethod::HashJoin),
                ..PlannerOptions::default()
            },
        ] {
            let planned = Planner::plan(&logical, &cat, &options).unwrap();
            let report = check_plans(&logical, &planned, &cat);
            assert!(report.is_ok(), "{:?}", report.into_result());
        }
    }

    #[test]
    fn tampered_plans_are_caught() {
        let cat = catalog();
        let logical = workload();
        let planned = Planner::plan(&logical, &cat, &PlannerOptions::default()).unwrap();

        // Dropping the filter breaks filter preservation.
        let mut no_filter = planned.clone();
        fn strip_filters(n: &mut PlanNode) {
            if let PlanNodeKind::Select { table, .. } = &n.kind {
                n.kind = PlanNodeKind::Scan {
                    table: table.clone(),
                };
            }
            for c in &mut n.children {
                strip_filters(c);
            }
        }
        strip_filters(&mut no_filter.root);
        assert!(!check_plans(&logical, &no_filter, &cat).is_ok());

        // An infeasible method (TreeMerge without both trees, since the
        // outer side is filtered) is caught by the physical check.
        let mut bad_method = planned.clone();
        fn force_tree_merge(n: &mut PlanNode) {
            if let PlanNodeKind::Join { method, .. } = &mut n.kind {
                *method = JoinMethod::Precomputed; // dept_id is not a pointer
            }
            for c in &mut n.children {
                force_tree_merge(c);
            }
        }
        force_tree_merge(&mut bad_method.root);
        assert!(!check_physical(&bad_method, &cat).is_ok());

        // Scrambled ids break the pre-order invariant.
        let mut bad_ids = planned;
        bad_ids.root.id = 7;
        assert!(!check_physical(&bad_ids, &cat).is_ok());

        // A projection of an unbound table fails the logical check.
        let bad_logical = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Scan {
                table: "emp".to_string(),
            }),
            cols: vec![("dept".to_string(), "dname".to_string())],
        };
        assert!(!check_logical(&bad_logical, &cat).is_ok());
    }
}
