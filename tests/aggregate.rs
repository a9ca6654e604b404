//! The incremental summary accumulator (`SummaryFold`) against its oracle,
//! the left fold of the pairwise `merge_summary_sets` that joins use.
//!
//! GROUP BY and DISTINCT absorb one tuple's summary set per row, and the
//! parallel gather combines per-worker partial folds; both must reproduce
//! the pairwise fold bit for bit, member order and f32 linear sums
//! included.

use proptest::prelude::*;

use insightnotes::annot::AnnotId;
use insightnotes::core::algebra::{merge_summary_sets, SummaryFold};
use insightnotes::core::summary::{
    ClassifierRep, ClusterGroup, ClusterRep, InstanceId, ObjId, Rep, SnippetEntry, SnippetRep,
    SummaryObject,
};
use insightnotes::storage::Oid;

/// Annotation ids are drawn from a small range so that tuples share them.
const IDS: u64 = 12;

/// Texts for most ids; some have none, as after a deletion.
fn resolver(id: AnnotId) -> Option<String> {
    (!id.0.is_multiple_of(5)).then(|| format!("bird {} wing {} song {}", id.0, id.0 % 3, id.0 * 7))
}

fn object(instance: u32, name: &str, tuple: u64, rep: Rep) -> SummaryObject {
    SummaryObject {
        obj_id: ObjId(tuple * 10 + u64::from(instance)),
        instance_id: InstanceId(instance),
        instance_name: name.into(),
        tuple_id: Oid(tuple),
        rep,
    }
}

/// Per label of a classifier object: element ids (repeats allowed) and a
/// stored count that need not match them.
type LabelSpec = (Vec<u64>, u64);

/// One tuple's summary set: each of three instances present or missing,
/// in a rotated order.
#[derive(Debug, Clone)]
struct SetSpec {
    /// A rotation of the label order, and the labels.
    classifier: Option<(usize, Vec<LabelSpec>)>,
    /// Snippet sources, repeats allowed within one set.
    snippet: Option<Vec<u64>>,
    /// Cluster groups: members (shared across groups and tuples) and a
    /// stored linear-sum seed.
    cluster: Option<Vec<(Vec<u64>, f32)>>,
    rotate: usize,
}

fn set_spec() -> impl Strategy<Value = SetSpec> {
    let ids = || prop::collection::vec(0..IDS, 0..5);
    let label = (ids(), 0u64..20);
    (
        prop::option::of((0usize..3, prop::collection::vec(label, 3..4))),
        prop::option::of(prop::collection::vec(0..IDS, 0..5)),
        prop::option::of(prop::collection::vec(
            (prop::collection::vec(0..IDS, 1..4), -2.0f32..2.0),
            0..4,
        )),
        0usize..3,
    )
        .prop_map(|(classifier, snippet, cluster, rotate)| SetSpec {
            classifier,
            snippet,
            cluster,
            rotate,
        })
}

fn build(tuple: u64, spec: &SetSpec) -> Vec<SummaryObject> {
    let mut set = Vec::new();
    if let Some((shift, labels)) = &spec.classifier {
        // Every object of the instance has the same labels; their order
        // may differ between objects.
        let mut names = ["Disease", "Behavior", "Habitat"];
        names.rotate_left(*shift);
        let mut rep = ClassifierRep::new(names.iter().map(|l| l.to_string()).collect());
        for (i, (ids, count)) in labels.iter().enumerate() {
            rep.elements[i] = ids.iter().map(|&a| AnnotId(a)).collect();
            rep.counts[i] = *count;
        }
        set.push(object(1, "ClassBird1", tuple, Rep::Classifier(rep)));
    }
    if let Some(sources) = &spec.snippet {
        let entries = sources
            .iter()
            .enumerate()
            .map(|(i, &s)| SnippetEntry {
                snippet: format!("t{tuple} #{i} of {s}"),
                source: AnnotId(s),
            })
            .collect();
        set.push(object(
            2,
            "TextSummary1",
            tuple,
            Rep::Snippet(SnippetRep { entries }),
        ));
    }
    if let Some(groups) = &spec.cluster {
        let groups = groups
            .iter()
            .map(|(members, seed)| ClusterGroup {
                rep_annot: AnnotId(members[0]),
                rep_text: format!("t{tuple} rep {}", members[0]),
                size: members.len() as u64,
                members: members.iter().map(|&a| AnnotId(a)).collect(),
                ls: vec![*seed, seed * 0.5, 1.0 / 3.0, -seed],
            })
            .collect();
        set.push(object(
            3,
            "SimCluster",
            tuple,
            Rep::Cluster(ClusterRep { groups }),
        ));
    }
    let n = set.len().max(1);
    set.rotate_left(spec.rotate % n);
    set
}

fn sets(specs: &[SetSpec]) -> Vec<Vec<SummaryObject>> {
    specs
        .iter()
        .enumerate()
        .map(|(t, s)| build(t as u64 + 1, s))
        .collect()
}

/// The oracle: the serial pairwise fold.
fn pairwise(sets: &[Vec<SummaryObject>]) -> Vec<SummaryObject> {
    let mut it = sets.iter();
    let Some(first) = it.next() else {
        return Vec::new();
    };
    it.fold(first.clone(), |acc, s| {
        merge_summary_sets(&acc, s, &resolver)
    })
}

fn fold(sets: &[Vec<SummaryObject>]) -> SummaryFold {
    let mut f = SummaryFold::new();
    for s in sets {
        f.absorb(s.clone());
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fold_equals_pairwise_left_fold(specs in prop::collection::vec(set_spec(), 1..9)) {
        let sets = sets(&specs);
        prop_assert_eq!(fold(&sets).finish(&resolver), pairwise(&sets));
    }

    /// The parallel gather: consecutive runs folded apart, then combined in
    /// order with `absorb_fold`, equal the serial fold.
    #[test]
    fn partial_folds_combine_to_the_serial_fold(
        specs in prop::collection::vec(set_spec(), 1..9),
        cuts in prop::collection::vec(0usize..9, 0..4),
    ) {
        let sets = sets(&specs);
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(sets.len())).collect();
        cuts.push(0);
        cuts.push(sets.len());
        cuts.sort_unstable();
        let mut gathered = SummaryFold::new();
        for w in cuts.windows(2) {
            gathered.absorb_fold(fold(&sets[w[0]..w[1]]));
        }
        prop_assert_eq!(gathered.finish(&resolver), pairwise(&sets));
    }
}
