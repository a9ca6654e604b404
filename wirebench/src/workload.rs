//! The workloads and their seeded request streams.
//!
//! Everything a run sends is derived from `--seed`: the reader's
//! statement stream and the writer's annotations (the corpus is fixed, see
//! `setup::CORPUS_SEED`). The server only ever sees the generated
//! statements.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use instn_annot::{text, Category};

/// A named workload (the names are the ones `BENCHMARK.json` declares).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Summary-heavy scans with no index registered.
    Scan,
    /// ClassBird2 Summary-BTree point and range probes beside an
    /// annotation writer the reader paces.
    Annotate,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Scan, Workload::Annotate];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Scan => "scan",
            Workload::Annotate => "annotate",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether set-up links ClassBird2 and registers its Summary-BTree.
    pub fn indexed(self) -> bool {
        !matches!(self, Workload::Scan)
    }

    /// Whether an in-process writer runs beside the reader.
    pub fn writes(self) -> bool {
        matches!(self, Workload::Annotate)
    }
}

/// Reads per annotation on `annotate`: the reader schedules write `i`
/// the moment its `32 × i`-th read completes (about 200 writes/s at the
/// reader's typical 6 500 reads/s on a 2-vCPU host). The ratio, not the
/// rate, is fixed: each write invalidates every cached Birds plan, so at a
/// fixed rate the share of reads that replan would follow how fast the
/// host runs the reader and amplify its noise.
pub const READS_PER_WRITE: u64 = 32;

/// The ClassBird1 labels the top-k statements order by.
const TOPK_LABELS: [&str; 4] = ["Disease", "Anatomy", "Behavior", "Other"];

/// One reader request.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Req {
    /// A statement sent as text (parsed by the server).
    Text(String),
    /// `ExecutePrepared` on the handle prepared for `ks[i]` at set-up.
    Prepared(usize),
}

/// `SELECT … WHERE Question = k` — the indexed equality probe, sent as
/// text or prepared.
pub fn question_eq(k: u64) -> String {
    format!(
        "SELECT id, common_name FROM Birds r WHERE \
         r.$.getSummaryObject('ClassBird2').getLabelValue('Question') = {k}"
    )
}

pub fn question_range(k: u64) -> String {
    format!(
        "SELECT id, common_name FROM Birds r WHERE \
         r.$.getSummaryObject('ClassBird2').getLabelValue('Question') >= {k} AND \
         r.$.getSummaryObject('ClassBird2').getLabelValue('Question') <= {}",
        k + 1
    )
}

/// Statement literals fixed at set-up from the statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Literals {
    /// ClassBird2 `Question` values the indexed probes draw from.
    pub ks: Vec<u64>,
    /// ClassBird1 `Disease` thresholds of the scan's summary filter.
    pub filter: Vec<u64>,
    /// ClassBird1 `Disease` thresholds of the scan's join.
    pub join: Vec<u64>,
}

/// The statement text behind a request.
pub fn statement(req: &Req, ks: &[u64]) -> String {
    match req {
        Req::Text(s) => s.clone(),
        Req::Prepared(i) => question_eq(ks[*i]),
    }
}

/// Statement templates of the `scan` mix, with their share per 100
/// requests: summary filter, `SELECT *`, point lookup, top-k, join,
/// GROUP BY.
const SCAN_DECK: [(Template, usize); 6] = [
    (Template::Filter, 32),
    (Template::Star, 15),
    (Template::Point, 25),
    (Template::TopK, 21),
    (Template::Join, 5),
    (Template::GroupBy, 2),
];

/// The probe mix per 10 requests: equality as text, equality prepared,
/// two-value range.
const INDEXED_DECK: [(Template, usize); 3] = [
    (Template::EqText, 5),
    (Template::EqPrepared, 3),
    (Template::Range, 2),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Template {
    Filter,
    Star,
    Point,
    TopK,
    Join,
    GroupBy,
    EqText,
    EqPrepared,
    Range,
}

/// A seeded, endless reader stream. Templates are dealt from a shuffled
/// deck that holds each exactly at its share, so every run of a workload
/// sends the same mix (the heavy join and GROUP BY statements would
/// otherwise swing a run's throughput by their sampling noise); the seed
/// picks the order and each statement's literals.
pub struct Stream {
    rng: StdRng,
    workload: Workload,
    lits: Literals,
    n_birds: u64,
    deck: Vec<Template>,
}

impl Stream {
    /// `n_birds` bounds the point-lookup ids.
    pub fn new(seed: u64, workload: Workload, lits: &Literals, n_birds: u64) -> Stream {
        Stream {
            rng: StdRng::seed_from_u64(seed ^ 0x005e_ed0f_7ea0_5eed),
            workload,
            lits: lits.clone(),
            n_birds,
            deck: Vec::new(),
        }
    }

    fn deal(&mut self) -> Template {
        if self.deck.is_empty() {
            let shares: &[(Template, usize)] = match self.workload {
                Workload::Scan => &SCAN_DECK,
                Workload::Annotate => &INDEXED_DECK,
            };
            for &(t, n) in shares {
                self.deck.extend(std::iter::repeat_n(t, n));
            }
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.random_range(0..=i);
                self.deck.swap(i, j);
            }
        }
        self.deck.pop().expect("refilled above")
    }

    pub fn next_req(&mut self) -> Req {
        match self.deal() {
            Template::Filter => Req::Text(format!(
                "SELECT id, common_name, family FROM Birds r WHERE \
                 r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > {}",
                pick(&mut self.rng, &self.lits.filter)
            )),
            Template::Star => Req::Text("SELECT * FROM Birds".to_string()),
            Template::Point => Req::Text(format!(
                "SELECT id, common_name FROM Birds r WHERE r.id = {}",
                self.rng.random_range(0..self.n_birds)
            )),
            Template::TopK => {
                let label = TOPK_LABELS[self.rng.random_range(0..TOPK_LABELS.len())];
                let limit = [1, 10, 100][self.rng.random_range(0..3usize)];
                Req::Text(format!(
                    "SELECT id, common_name FROM Birds r ORDER BY \
                     r.$.getSummaryObject('ClassBird1').getLabelValue('{label}') DESC \
                     LIMIT {limit}"
                ))
            }
            Template::Join => Req::Text(format!(
                "SELECT b.id, b.common_name, s.synonym FROM Birds b, Synonyms s WHERE \
                 b.id = s.bird_id AND \
                 b.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > {}",
                pick(&mut self.rng, &self.lits.join)
            )),
            Template::GroupBy => {
                Req::Text("SELECT family FROM Birds r GROUP BY family".to_string())
            }
            Template::EqText => Req::Text(question_eq(pick(&mut self.rng, &self.lits.ks))),
            Template::EqPrepared => Req::Prepared(self.rng.random_range(0..self.lits.ks.len())),
            Template::Range => Req::Text(question_range(pick(&mut self.rng, &self.lits.ks))),
        }
    }
}

/// A uniform draw from `values`.
fn pick(rng: &mut StdRng, values: &[u64]) -> u64 {
    values[rng.random_range(0..values.len())]
}

/// One annotation of the writer.
#[derive(Debug, Clone)]
pub struct Write {
    /// Index into the Birds OIDs (uniform).
    pub bird: usize,
    pub category: Category,
    pub text: String,
}

/// Category mix of the corpus (`build_db`'s generator), so written
/// annotations classify like the loaded ones.
fn sample_category(rng: &mut StdRng) -> Category {
    match rng.random_range(0..100u32) {
        0..=9 => Category::Disease,
        10..=27 => Category::Anatomy,
        28..=52 => Category::Behavior,
        53..=60 => Category::Provenance,
        61..=82 => Category::Comment,
        83..=89 => Category::Question,
        _ => Category::Other,
    }
}

/// The writer's seeded, endless annotation stream: uniform Birds, corpus
/// category mix, 80–400 chars with 3% at 1 000–2 400 chars.
pub struct WriteStream {
    rng: StdRng,
    n_birds: usize,
    ahead: Option<Write>,
}

impl WriteStream {
    pub fn new(seed: u64, n_birds: usize) -> WriteStream {
        WriteStream {
            rng: StdRng::seed_from_u64(seed ^ 0x0a11_07a7_e5ee_d000),
            n_birds,
            ahead: None,
        }
    }

    /// Generate the next annotation now, so taking it later costs
    /// nothing.
    pub fn prepare(&mut self) {
        if self.ahead.is_none() {
            self.ahead = Some(self.generate());
        }
    }

    pub fn next_write(&mut self) -> Write {
        self.ahead.take().unwrap_or_else(|| self.generate())
    }

    fn generate(&mut self) -> Write {
        let rng = &mut self.rng;
        let bird = rng.random_range(0..self.n_birds);
        let category = sample_category(rng);
        let len = if rng.random_bool(0.03) {
            rng.random_range(1_000..2_400)
        } else {
            rng.random_range(80..400)
        };
        Write {
            bird,
            category,
            text: text::generate(rng, category, len),
        }
    }
}

/// The first `count` annotations of the writer's stream.
pub fn writer_schedule(seed: u64, count: usize, n_birds: usize) -> Vec<Write> {
    let mut ws = WriteStream::new(seed, n_birds);
    (0..count).map(|_| ws.next_write()).collect()
}

/// FNV-1a, for a stream digest that is stable across builds and hosts.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of the first `reads` stream requests and the first `writes`
/// scheduled annotations for this seed — the printed stream hash.
pub fn stream_hash(
    seed: u64,
    workload: Workload,
    lits: &Literals,
    n_birds: usize,
    reads: usize,
    writes: usize,
) -> u64 {
    let mut h = FNV_OFFSET;
    let mut s = Stream::new(seed, workload, lits, n_birds as u64);
    for _ in 0..reads {
        h = fnv1a(h, statement(&s.next_req(), &lits.ks).as_bytes());
        h = fnv1a(h, b"\n");
    }
    if workload.writes() {
        for w in writer_schedule(seed, writes, n_birds) {
            h = fnv1a(h, &(w.bird as u64).to_le_bytes());
            h = fnv1a(h, w.category.label().as_bytes());
            h = fnv1a(h, w.text.as_bytes());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits() -> Literals {
        Literals {
            ks: vec![5, 9],
            filter: vec![0, 2, 4],
            join: vec![6],
        }
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let lits = lits();
        for w in Workload::ALL {
            let a = stream_hash(7, w, &lits, 100, 500, 50);
            assert_eq!(a, stream_hash(7, w, &lits, 100, 500, 50));
            assert_ne!(a, stream_hash(8, w, &lits, 100, 500, 50));
        }
    }

    #[test]
    fn scan_mix_covers_every_template() {
        let mut s = Stream::new(1, Workload::Scan, &lits(), 2250);
        let reqs: Vec<String> = (0..2000)
            .map(|_| match s.next_req() {
                Req::Text(t) => t,
                Req::Prepared(_) => panic!("scan sends text only"),
            })
            .collect();
        for needle in [
            "GROUP BY",
            "Synonyms",
            "LIMIT",
            "r.id =",
            "SELECT * FROM",
            "> ",
        ] {
            assert!(reqs.iter().any(|r| r.contains(needle)), "{needle}");
        }
    }

    #[test]
    fn every_hundred_scan_requests_hold_the_exact_mix() {
        let mut s = Stream::new(9, Workload::Scan, &lits(), 2250);
        for _ in 0..3 {
            let block: Vec<String> = (0..100).map(|_| statement(&s.next_req(), &[])).collect();
            let count = |needle: &str| block.iter().filter(|r| r.contains(needle)).count();
            assert_eq!(count("GROUP BY"), 2);
            assert_eq!(count("Synonyms"), 5);
            assert_eq!(count("LIMIT"), 21);
            assert_eq!(count("r.id ="), 25);
            assert_eq!(count("SELECT * FROM"), 15);
        }
    }

    #[test]
    fn indexed_mix_uses_prepared_handles() {
        let mut s = Stream::new(1, Workload::Annotate, &lits(), 10);
        let reqs: Vec<Req> = (0..300).map(|_| s.next_req()).collect();
        assert!(reqs.iter().any(|r| matches!(r, Req::Prepared(_))));
        assert!(reqs
            .iter()
            .any(|r| matches!(r, Req::Text(t) if t.contains(">= "))));
    }

    #[test]
    fn writer_schedule_respects_lengths() {
        let ws = writer_schedule(3, 400, 50);
        assert!(ws.iter().all(|w| w.bird < 50 && w.text.len() >= 80));
        assert!(ws.iter().any(|w| w.text.len() >= 1_000));
    }
}
