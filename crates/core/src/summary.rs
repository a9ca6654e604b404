//! The summary data model.
//!
//! Per §2.1, every summary object is a five-ary vector
//! `{ObjID, InstanceID, TupleID, Rep[], Elements[][]}` whose `Rep[]`
//! structure depends on the summary type:
//!
//! | Type       | Rep[] structure                                   |
//! |------------|---------------------------------------------------|
//! | Cluster    | `[(Text annotation, Number groupSize)]`           |
//! | Classifier | `[(Text classLabel, Number annotationCnt)]`       |
//! | Snippet    | `[(Text snippetValue)]`                           |
//!
//! `Elements[][]` stores, per representative, the ids of its contributing
//! raw annotations — the hook that zoom-in queries use to recover the raw
//! annotations behind a summary.

use instn_annot::AnnotId;
use instn_storage::Oid;

use crate::persist::bounded_capacity;
use crate::{CoreError, Result};

/// Fewest bytes an encoded [`SummaryObject`] takes: ids, the name's
/// length, the tuple id, the rep tag and the rep's element count.
const MIN_OBJECT_BYTES: usize = 8 + 4 + 4 + 8 + 1 + 4;

/// Identifier of a summary instance within a database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u32);

/// Identifier of a summary object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u64);

/// The three supported summary families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SummaryType {
    /// Label histogram over the raw annotations.
    Classifier,
    /// Extractive snippets of large annotations.
    Snippet,
    /// Groups of similar annotations with representatives.
    Cluster,
}

impl SummaryType {
    /// Canonical name, as returned by `getSummaryType()` (§3.1).
    pub fn name(&self) -> &'static str {
        match self {
            SummaryType::Classifier => "Classifier",
            SummaryType::Snippet => "Snippet",
            SummaryType::Cluster => "Cluster",
        }
    }

    /// Parse from the canonical name.
    pub fn parse(s: &str) -> Option<SummaryType> {
        match s {
            "Classifier" => Some(SummaryType::Classifier),
            "Snippet" => Some(SummaryType::Snippet),
            "Cluster" => Some(SummaryType::Cluster),
            _ => None,
        }
    }
}

/// Classifier representatives: parallel label/count/element arrays in the
/// instance's fixed label order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClassifierRep {
    /// Class labels, in instance order.
    pub labels: Vec<String>,
    /// `annotationCnt` per label.
    pub counts: Vec<u64>,
    /// Contributing annotation ids per label (`Elements[][]`).
    pub elements: Vec<Vec<AnnotId>>,
}

impl ClassifierRep {
    /// Empty histogram over `labels`.
    pub fn new(labels: Vec<String>) -> Self {
        let n = labels.len();
        Self {
            labels,
            counts: vec![0; n],
            elements: vec![Vec::new(); n],
        }
    }

    /// Index of `label`.
    pub fn label_index(&self, label: &str) -> Option<usize> {
        self.labels.iter().position(|l| l == label)
    }

    /// Count for `label`, if the label exists.
    pub fn count(&self, label: &str) -> Option<u64> {
        self.label_index(label).map(|i| self.counts[i])
    }

    /// Total annotations across labels.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// One snippet entry: the snippet text plus its source annotation.
#[derive(Debug, Clone, PartialEq)]
pub struct SnippetEntry {
    /// The extracted snippet (`snippetValue`).
    pub snippet: String,
    /// The summarized raw annotation.
    pub source: AnnotId,
}

/// Snippet representatives.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnippetRep {
    /// Snippet entries, in arbitrary order (§3.1: "the order among the
    /// snippets is arbitrary").
    pub entries: Vec<SnippetEntry>,
}

/// One cluster group: representative + members.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterGroup {
    /// The elected representative annotation's id.
    pub rep_annot: AnnotId,
    /// The representative's text (reported at query time).
    pub rep_text: String,
    /// `groupSize`: number of member annotations.
    pub size: u64,
    /// Member annotation ids (`Elements[]` of this group).
    pub members: Vec<AnnotId>,
    /// Linear sum of member embeddings (internal: supports incremental
    /// centroid maintenance; never shown to end users).
    pub ls: Vec<f32>,
}

impl ClusterGroup {
    /// Centroid of the group's embedding cloud.
    pub fn centroid(&self) -> Vec<f64> {
        if self.size == 0 {
            return vec![0.0; self.ls.len()];
        }
        self.ls
            .iter()
            .map(|&x| x as f64 / self.size as f64)
            .collect()
    }
}

/// Cluster representatives.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterRep {
    /// The groups.
    pub groups: Vec<ClusterGroup>,
}

/// The type-dependent `Rep[]` payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Rep {
    /// Classifier payload.
    Classifier(ClassifierRep),
    /// Snippet payload.
    Snippet(SnippetRep),
    /// Cluster payload.
    Cluster(ClusterRep),
}

impl Rep {
    /// The summary type of this payload.
    pub fn summary_type(&self) -> SummaryType {
        match self {
            Rep::Classifier(_) => SummaryType::Classifier,
            Rep::Snippet(_) => SummaryType::Snippet,
            Rep::Cluster(_) => SummaryType::Cluster,
        }
    }
}

/// A summary object: the paper's five-ary vector.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryObject {
    /// Unique object id.
    pub obj_id: ObjId,
    /// The instance that produced it.
    pub instance_id: InstanceId,
    /// Instance name (denormalized for query-time `getSummaryName()`).
    pub instance_name: String,
    /// The annotated data tuple.
    pub tuple_id: Oid,
    /// Type-dependent representatives.
    pub rep: Rep,
}

impl SummaryObject {
    /// `getSummaryType()` (§3.1).
    pub fn summary_type(&self) -> SummaryType {
        self.rep.summary_type()
    }

    /// `getSummaryName()` (§3.1).
    pub fn summary_name(&self) -> &str {
        &self.instance_name
    }

    /// `getSize()`: number of representatives in `Rep[]` (§3.1).
    pub fn size(&self) -> usize {
        match &self.rep {
            Rep::Classifier(c) => c.labels.len(),
            Rep::Snippet(s) => s.entries.len(),
            Rep::Cluster(c) => c.groups.len(),
        }
    }

    /// `Elements[][]`: contributing annotation ids per representative.
    pub fn elements(&self) -> Vec<Vec<AnnotId>> {
        match &self.rep {
            Rep::Classifier(c) => c.elements.clone(),
            Rep::Snippet(s) => s.entries.iter().map(|e| vec![e.source]).collect(),
            Rep::Cluster(c) => c.groups.iter().map(|g| g.members.clone()).collect(),
        }
    }

    /// All contributing annotation ids, flattened and deduplicated.
    pub fn all_annotations(&self) -> Vec<AnnotId> {
        let mut ids: Vec<AnnotId> = self.elements().into_iter().flatten().collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Whether the object summarizes no annotations.
    pub fn is_empty(&self) -> bool {
        match &self.rep {
            Rep::Classifier(c) => c.total() == 0,
            Rep::Snippet(s) => s.entries.is_empty(),
            Rep::Cluster(c) => c.groups.is_empty(),
        }
    }

    /// Serialize for the de-normalized SummaryStorage heap rows.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.obj_id.0.to_le_bytes());
        out.extend_from_slice(&self.instance_id.0.to_le_bytes());
        put_str(out, &self.instance_name);
        out.extend_from_slice(&self.tuple_id.0.to_le_bytes());
        match &self.rep {
            Rep::Classifier(c) => {
                out.push(0);
                put_u32(out, c.labels.len() as u32);
                for i in 0..c.labels.len() {
                    put_str(out, &c.labels[i]);
                    out.extend_from_slice(&c.counts[i].to_le_bytes());
                    put_u32(out, c.elements[i].len() as u32);
                    for a in &c.elements[i] {
                        out.extend_from_slice(&a.0.to_le_bytes());
                    }
                }
            }
            Rep::Snippet(s) => {
                out.push(1);
                put_u32(out, s.entries.len() as u32);
                for e in &s.entries {
                    put_str(out, &e.snippet);
                    out.extend_from_slice(&e.source.0.to_le_bytes());
                }
            }
            Rep::Cluster(c) => {
                out.push(2);
                put_u32(out, c.groups.len() as u32);
                for g in &c.groups {
                    out.extend_from_slice(&g.rep_annot.0.to_le_bytes());
                    put_str(out, &g.rep_text);
                    out.extend_from_slice(&g.size.to_le_bytes());
                    put_u32(out, g.members.len() as u32);
                    for m in &g.members {
                        out.extend_from_slice(&m.0.to_le_bytes());
                    }
                    put_u32(out, g.ls.len() as u32);
                    for x in &g.ls {
                        out.extend_from_slice(&x.to_le_bytes());
                    }
                }
            }
        }
    }

    /// Deserialize one object, advancing `pos`.
    pub fn decode(bytes: &[u8], pos: &mut usize) -> Result<SummaryObject> {
        let obj_id = ObjId(get_u64(bytes, pos)?);
        let instance_id = InstanceId(get_u32(bytes, pos)?);
        let instance_name = get_str(bytes, pos)?;
        let tuple_id = Oid(get_u64(bytes, pos)?);
        let tag = get_u8(bytes, pos)?;
        let rep = match tag {
            0 => {
                let n = get_u32(bytes, pos)? as usize;
                let mut c = ClassifierRep::default();
                for _ in 0..n {
                    c.labels.push(get_str(bytes, pos)?);
                    c.counts.push(get_u64(bytes, pos)?);
                    let m = get_u32(bytes, pos)? as usize;
                    let mut ids = Vec::with_capacity(bounded_capacity(m, bytes, *pos, 8));
                    for _ in 0..m {
                        ids.push(AnnotId(get_u64(bytes, pos)?));
                    }
                    c.elements.push(ids);
                }
                Rep::Classifier(c)
            }
            1 => {
                let n = get_u32(bytes, pos)? as usize;
                let mut s = SnippetRep::default();
                for _ in 0..n {
                    let snippet = get_str(bytes, pos)?;
                    let source = AnnotId(get_u64(bytes, pos)?);
                    s.entries.push(SnippetEntry { snippet, source });
                }
                Rep::Snippet(s)
            }
            2 => {
                let n = get_u32(bytes, pos)? as usize;
                let mut c = ClusterRep::default();
                for _ in 0..n {
                    let rep_annot = AnnotId(get_u64(bytes, pos)?);
                    let rep_text = get_str(bytes, pos)?;
                    let size = get_u64(bytes, pos)?;
                    let m = get_u32(bytes, pos)? as usize;
                    let mut members = Vec::with_capacity(bounded_capacity(m, bytes, *pos, 8));
                    for _ in 0..m {
                        members.push(AnnotId(get_u64(bytes, pos)?));
                    }
                    let l = get_u32(bytes, pos)? as usize;
                    let mut ls = Vec::with_capacity(bounded_capacity(l, bytes, *pos, 4));
                    for _ in 0..l {
                        ls.push(f32::from_le_bytes(get_arr(bytes, pos)?));
                    }
                    c.groups.push(ClusterGroup {
                        rep_annot,
                        rep_text,
                        size,
                        members,
                        ls,
                    });
                }
                Rep::Cluster(c)
            }
            t => return Err(CoreError::Corrupt(format!("bad rep tag {t}"))),
        };
        Ok(SummaryObject {
            obj_id,
            instance_id,
            instance_name,
            tuple_id,
            rep,
        })
    }
}

/// Encode a whole summary set (one SummaryStorage row).
pub fn encode_objects(objects: &[SummaryObject]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 * objects.len());
    put_u32(&mut out, objects.len() as u32);
    for o in objects {
        o.encode(&mut out);
    }
    out
}

/// Decode a summary set.
pub fn decode_objects(bytes: &[u8]) -> Result<Vec<SummaryObject>> {
    let mut pos = 0usize;
    let n = get_u32(bytes, &mut pos)? as usize;
    let mut out = Vec::with_capacity(bounded_capacity(n, bytes, pos, MIN_OBJECT_BYTES));
    for _ in 0..n {
        out.push(SummaryObject::decode(bytes, &mut pos)?);
    }
    Ok(out)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn get_arr<const N: usize>(bytes: &[u8], pos: &mut usize) -> Result<[u8; N]> {
    let end = *pos + N;
    let s = bytes
        .get(*pos..end)
        .ok_or_else(|| CoreError::Corrupt("truncated".into()))?;
    *pos = end;
    let mut a = [0u8; N];
    a.copy_from_slice(s);
    Ok(a)
}

fn get_u8(bytes: &[u8], pos: &mut usize) -> Result<u8> {
    Ok(get_arr::<1>(bytes, pos)?[0])
}

fn get_u32(bytes: &[u8], pos: &mut usize) -> Result<u32> {
    Ok(u32::from_le_bytes(get_arr(bytes, pos)?))
}

fn get_u64(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    Ok(u64::from_le_bytes(get_arr(bytes, pos)?))
}

fn get_str(bytes: &[u8], pos: &mut usize) -> Result<String> {
    let len = get_u32(bytes, pos)? as usize;
    let end = *pos + len;
    let s = bytes
        .get(*pos..end)
        .ok_or_else(|| CoreError::Corrupt("truncated string".into()))?;
    *pos = end;
    String::from_utf8(s.to_vec()).map_err(|e| CoreError::Corrupt(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classifier_obj() -> SummaryObject {
        SummaryObject {
            obj_id: ObjId(1),
            instance_id: InstanceId(10),
            instance_name: "ClassBird1".into(),
            tuple_id: Oid(5),
            rep: Rep::Classifier(ClassifierRep {
                labels: vec!["Disease".into(), "Behavior".into()],
                counts: vec![8, 33],
                elements: vec![vec![AnnotId(1)], vec![AnnotId(2), AnnotId(3)]],
            }),
        }
    }

    fn snippet_obj() -> SummaryObject {
        SummaryObject {
            obj_id: ObjId(2),
            instance_id: InstanceId(11),
            instance_name: "TextSummary1".into(),
            tuple_id: Oid(5),
            rep: Rep::Snippet(SnippetRep {
                entries: vec![SnippetEntry {
                    snippet: "Experiment E …".into(),
                    source: AnnotId(9),
                }],
            }),
        }
    }

    fn cluster_obj() -> SummaryObject {
        SummaryObject {
            obj_id: ObjId(3),
            instance_id: InstanceId(12),
            instance_name: "SimCluster".into(),
            tuple_id: Oid(5),
            rep: Rep::Cluster(ClusterRep {
                groups: vec![ClusterGroup {
                    rep_annot: AnnotId(4),
                    rep_text: "Large one having size".into(),
                    size: 3,
                    members: vec![AnnotId(4), AnnotId(5), AnnotId(6)],
                    ls: vec![0.5; 4],
                }],
            }),
        }
    }

    #[test]
    fn encode_decode_each_type() {
        for obj in [classifier_obj(), snippet_obj(), cluster_obj()] {
            let mut bytes = Vec::new();
            obj.encode(&mut bytes);
            let mut pos = 0;
            let back = SummaryObject::decode(&bytes, &mut pos).unwrap();
            assert_eq!(back, obj);
            assert_eq!(pos, bytes.len());
        }
    }

    #[test]
    fn encode_decode_object_set() {
        let set = vec![classifier_obj(), snippet_obj(), cluster_obj()];
        let bytes = encode_objects(&set);
        assert_eq!(decode_objects(&bytes).unwrap(), set);
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut bytes = Vec::new();
        classifier_obj().encode(&mut bytes);
        let mut pos = 0;
        assert!(SummaryObject::decode(&bytes[..bytes.len() - 3], &mut pos).is_err());
    }

    /// Counts read from the bytes must not size allocations: `ff ff ff 7f`
    /// claimed 2^31 - 1 objects and aborted the process on reserving them.
    #[test]
    fn decode_rejects_inflated_counts() {
        let corrupt = |r: Result<Vec<SummaryObject>>| matches!(r, Err(CoreError::Corrupt(_)));
        assert!(corrupt(decode_objects(&[0xff, 0xff, 0xff, 0x7f])));
        let set = vec![classifier_obj(), snippet_obj(), cluster_obj()];
        let bytes = encode_objects(&set);
        for cut in 0..bytes.len() {
            assert!(corrupt(decode_objects(&bytes[..cut])), "truncated at {cut}");
        }
        // Inflate each u32 count field in turn: the set count, the label,
        // element, snippet, group, member and `ls` counts.
        let mut counts = vec![0];
        let mut pos = 4;
        for obj in &set {
            let start = pos;
            let mut one = Vec::new();
            obj.encode(&mut one);
            let name = 8 + 4 + 4 + obj.instance_name.len() + 8 + 1;
            counts.push(start + name);
            match &obj.rep {
                Rep::Classifier(c) => {
                    // The first label's element count.
                    counts.push(start + name + 4 + 4 + c.labels[0].len() + 8);
                }
                Rep::Cluster(g) => {
                    let g = &g.groups[0];
                    let members = start + name + 4 + 8 + 4 + g.rep_text.len() + 8;
                    counts.push(members);
                    counts.push(members + 4 + 8 * g.members.len());
                }
                Rep::Snippet(_) => {}
            }
            pos += one.len();
        }
        for at in counts {
            for inflated in [u32::MAX, 0x7fff_ffff, 1 << 20] {
                let mut b = bytes.clone();
                b[at..at + 4].copy_from_slice(&inflated.to_le_bytes());
                assert!(corrupt(decode_objects(&b)), "count at {at} = {inflated}");
            }
        }
    }

    #[test]
    fn accessors_match_paper_functions() {
        let c = classifier_obj();
        assert_eq!(c.summary_type(), SummaryType::Classifier);
        assert_eq!(c.summary_name(), "ClassBird1");
        assert_eq!(c.size(), 2);
        assert_eq!(c.elements().len(), 2);
        assert_eq!(
            c.all_annotations(),
            vec![AnnotId(1), AnnotId(2), AnnotId(3)]
        );
        assert!(!c.is_empty());

        let s = snippet_obj();
        assert_eq!(s.summary_type(), SummaryType::Snippet);
        assert_eq!(s.size(), 1);

        let cl = cluster_obj();
        assert_eq!(cl.summary_type(), SummaryType::Cluster);
        assert_eq!(cl.size(), 1);
        assert_eq!(cl.elements()[0].len(), 3);
    }

    #[test]
    fn classifier_rep_helpers() {
        let c = ClassifierRep {
            labels: vec!["A".into(), "B".into()],
            counts: vec![5, 7],
            elements: vec![vec![], vec![]],
        };
        assert_eq!(c.count("A"), Some(5));
        assert_eq!(c.count("C"), None);
        assert_eq!(c.total(), 12);
    }

    #[test]
    fn empty_objects_report_empty() {
        let c = SummaryObject {
            rep: Rep::Classifier(ClassifierRep::new(vec!["A".into()])),
            ..classifier_obj()
        };
        assert!(c.is_empty());
        let s = SummaryObject {
            rep: Rep::Snippet(SnippetRep::default()),
            ..snippet_obj()
        };
        assert!(s.is_empty());
    }

    #[test]
    fn summary_type_name_roundtrip() {
        for t in [
            SummaryType::Classifier,
            SummaryType::Snippet,
            SummaryType::Cluster,
        ] {
            assert_eq!(SummaryType::parse(t.name()), Some(t));
        }
        assert_eq!(SummaryType::parse("Foo"), None);
    }

    #[test]
    fn cluster_group_centroid() {
        let g = ClusterGroup {
            rep_annot: AnnotId(1),
            rep_text: "r".into(),
            size: 2,
            members: vec![AnnotId(1), AnnotId(2)],
            ls: vec![2.0, 4.0],
        };
        assert_eq!(g.centroid(), vec![1.0, 2.0]);
    }
}
