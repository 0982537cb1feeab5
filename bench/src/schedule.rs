//! Seeded request schedules: what is asked, of which dataset, on which
//! engine, and (open loop) when. A schedule is a pure function of the seed
//! and the datasets' candidate vertices — the same seed renders a
//! byte-identical list of request lines and due times.

use ihtl_apps::JobSpec;
use ihtl_gen::zipf::Zipf;
use ihtl_gen::Pcg64;

use crate::util::derive_seed;

/// How many distinct `seed` / `source` vertices a dataset's requests draw
/// from (Zipf-distributed, so a few repeat often and the tail rarely).
pub const CANDIDATES: usize = 32;

/// What the generator needs to know about a registered dataset.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetView {
    pub name: String,
    /// Vertices by descending out-degree: the first [`CANDIDATES`] feed the
    /// mix, the rest feed the never-repeating burst queries.
    pub by_out_degree: Vec<u32>,
}

impl DatasetView {
    pub fn of(name: &str, g: &ihtl_graph::Graph) -> DatasetView {
        let mut by_out: Vec<u32> = (0..g.n_vertices() as u32).collect();
        by_out.sort_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v));
        by_out.truncate(4096);
        DatasetView { name: name.to_string(), by_out_degree: by_out }
    }
}

/// The two traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// `serve_mixed`: dataset ~ Zipf(6, 1.0); 50 % `spmv iters=2`, 30 %
    /// `pagerank iters=5` (half personalised), 20 % `sssp`; engine 50 %
    /// `auto`, 35 % `ihtl`, 15 % `pb`. Dealt in shuffled blocks of
    /// [`BLOCK`] requests that hold each dataset, kind and engine in exactly
    /// its share (see [`Stream::block_table`]).
    Serve,
    /// `router_shards`: one dataset; 40 % `spmv iters=2`, 40 % `pagerank
    /// iters=4`, 20 % `sssp`; engines alternate `pull_grind` / `pb`.
    Router,
}

/// One request of a schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Nanoseconds after the phase starts at which the request is due
    /// (0 in closed-loop use).
    pub due_ns: u64,
    /// Which client connection sends it.
    pub conn: usize,
    /// Index into the dataset list.
    pub dataset: usize,
    pub spec: JobSpec,
    /// Engine as written on the wire.
    pub engine: &'static str,
    /// The rendered request line.
    pub line: String,
}

/// Renders a `job` request line; `extra` is appended verbatim inside the
/// object (e.g. `,"trace":true`).
pub fn render_job(dataset: &str, spec: &JobSpec, engine: &str, extra: &str) -> String {
    let body = match spec {
        JobSpec::PageRank { iters, seed: None } => {
            format!("\"kind\":\"pagerank\",\"iters\":{iters}")
        }
        JobSpec::PageRank { iters, seed: Some(s) } => {
            format!("\"kind\":\"pagerank\",\"iters\":{iters},\"seed\":{s}")
        }
        JobSpec::SpmvSum { iters, source: None } => format!("\"kind\":\"spmv\",\"iters\":{iters}"),
        JobSpec::SpmvSum { iters, source: Some(s) } => {
            format!("\"kind\":\"spmv\",\"iters\":{iters},\"source\":{s}")
        }
        JobSpec::Sssp { source, max_rounds } => {
            format!("\"kind\":\"sssp\",\"source\":{source},\"max_rounds\":{max_rounds}")
        }
        JobSpec::Components { max_rounds } => {
            format!("\"kind\":\"cc\",\"max_rounds\":{max_rounds}")
        }
        JobSpec::Bfs { source } => format!("\"kind\":\"bfs\",\"source\":{source}"),
    };
    format!("{{\"op\":\"job\",\"dataset\":\"{dataset}\",\"engine\":\"{engine}\",{body}{extra}}}")
}

/// Requests per block of the serve mix: the smallest count at which 50 / 15
/// / 15 / 20 % and 50 / 35 / 15 % are whole numbers with room for the
/// rarest dataset (6.8 %) to appear several times.
pub const BLOCK: usize = 120;

/// The four job kinds of the serve mix.
#[derive(Clone, Copy)]
enum Kind {
    Spmv,
    PageRank,
    PageRankSeeded,
    Sssp,
}

/// `shares` of `total` as whole counts that sum to `total`: floors first,
/// the remainder to the largest fractional parts (ties to the lower index).
fn apportion(shares: &[f64], total: usize) -> Vec<usize> {
    let sum: f64 = shares.iter().sum();
    let exact: Vec<f64> = shares.iter().map(|s| s / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_fraction: Vec<usize> = (0..shares.len()).collect();
    by_fraction.sort_by(|&a, &b| {
        let (fa, fb) = (exact[a].fract(), exact[b].fract());
        fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    let missing = total - counts.iter().sum::<usize>();
    for &i in by_fraction.iter().take(missing) {
        counts[i] += 1;
    }
    counts
}

/// `counts[i]` copies of `values[i]`, in order.
fn repeat_each<T: Copy>(values: &[T], counts: &[usize]) -> Vec<T> {
    values.iter().zip(counts).flat_map(|(&v, &c)| std::iter::repeat_n(v, c)).collect()
}

/// An endless seeded stream of mix draws.
pub struct Stream<'a> {
    rng: Pcg64,
    mix: Mix,
    datasets: &'a [DatasetView],
    vertex_zipf: Zipf,
    /// The rest of the current serve-mix block.
    block: Vec<(usize, Kind, &'static str)>,
    drawn: u64,
    extra: &'static str,
}

impl<'a> Stream<'a> {
    /// `tag` separates the streams of one run (phase, connection).
    pub fn new(seed: u64, tag: &str, mix: Mix, datasets: &'a [DatasetView]) -> Stream<'a> {
        assert!(!datasets.is_empty(), "a schedule needs at least one dataset");
        Stream {
            rng: Pcg64::seed_from_u64(derive_seed(seed, tag)),
            mix,
            datasets,
            vertex_zipf: Zipf::new(CANDIDATES, 1.0),
            block: Vec::new(),
            drawn: 0,
            extra: "",
        }
    }

    /// Appends `extra` inside every rendered request object.
    pub fn with_extra(mut self, extra: &'static str) -> Stream<'a> {
        self.extra = extra;
        self
    }

    fn candidate(&mut self, dataset: usize) -> u32 {
        let list = &self.datasets[dataset].by_out_degree;
        list[self.vertex_zipf.sample(&mut self.rng).min(list.len() - 1)]
    }

    /// The serve mix's block: every dataset (Zipf(n, 1.0) shares), kind and
    /// engine in exactly its share of [`BLOCK`], paired by three shuffles
    /// from a fixed generator — the same table for every run seed, so every
    /// block of every run asks for the same multiset of (dataset, kind,
    /// engine). Independent draws leave the composition of a few-second
    /// phase to chance, and with it the share of requests the result cache
    /// answers and the number of sweeps over the largest graph: the closed
    /// loop's jobs per second moved by 18 % between seeds, and still by 7 %
    /// with fixed shares but seeded pairing.
    fn block_table(n_datasets: usize) -> Vec<(usize, Kind, &'static str)> {
        let zipf: Vec<f64> = (1..=n_datasets).map(|rank| 1.0 / rank as f64).collect();
        let ids: Vec<usize> = (0..n_datasets).collect();
        let mut datasets = repeat_each(&ids, &apportion(&zipf, BLOCK));
        let mut kinds = repeat_each(
            &[Kind::Spmv, Kind::PageRank, Kind::PageRankSeeded, Kind::Sssp],
            &apportion(&[0.50, 0.15, 0.15, 0.20], BLOCK),
        );
        let mut engines =
            repeat_each(&["auto", "ihtl", "pb"], &apportion(&[0.50, 0.35, 0.15], BLOCK));
        let mut pairing = Pcg64::seed_from_u64(BLOCK as u64);
        pairing.shuffle(&mut datasets);
        pairing.shuffle(&mut kinds);
        pairing.shuffle(&mut engines);
        datasets.into_iter().zip(kinds).zip(engines).map(|((d, k), e)| (d, k, e)).collect()
    }

    /// Deals the next block: the table in an order the run's seed decides.
    fn deal_block(&mut self) {
        self.block = Self::block_table(self.datasets.len());
        self.rng.shuffle(&mut self.block);
    }

    /// Draws the next request (due time 0, connection 0).
    pub fn draw(&mut self) -> Request {
        let (dataset, kind, engine) = match self.mix {
            Mix::Serve => {
                if self.block.is_empty() {
                    self.deal_block();
                }
                self.block.pop().expect("a block was just dealt")
            }
            // The router mix is dealt in a fixed five-job pattern (exactly
            // 40/40/20, engines alternating): its closed loop completes a
            // few dozen jobs per run.
            Mix::Router => {
                let kind = [Kind::Spmv, Kind::PageRank, Kind::Spmv, Kind::PageRank, Kind::Sssp]
                    [(self.drawn % 5) as usize];
                (0, kind, if self.drawn.is_multiple_of(2) { "pull_grind" } else { "pb" })
            }
        };
        let pagerank_iters = if self.mix == Mix::Serve { 5 } else { 4 };
        let spec = match kind {
            Kind::Spmv => JobSpec::SpmvSum { iters: 2, source: None },
            Kind::PageRank => JobSpec::PageRank { iters: pagerank_iters, seed: None },
            Kind::PageRankSeeded => {
                JobSpec::PageRank { iters: pagerank_iters, seed: Some(self.candidate(dataset)) }
            }
            Kind::Sssp => JobSpec::Sssp { source: self.candidate(dataset), max_rounds: 256 },
        };
        self.drawn += 1;
        let line = render_job(&self.datasets[dataset].name, &spec, engine, self.extra);
        Request { due_ns: 0, conn: 0, dataset, spec, engine, line }
    }
}

/// An open-loop schedule: exponential gaps at `rate_per_s` for
/// `duration_s`, dealt alternately to `conns` connections.
pub fn open_loop(
    seed: u64,
    tag: &str,
    mix: Mix,
    datasets: &[DatasetView],
    rate_per_s: f64,
    duration_s: f64,
    conns: usize,
) -> Vec<Request> {
    let mut stream = Stream::new(seed, tag, mix, datasets);
    let mut arrivals = Pcg64::seed_from_u64(derive_seed(seed, &format!("{tag}-arrivals")));
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; 1 - u is in (0, 1].
        t += -(1.0 - arrivals.next_f64()).ln() / rate_per_s;
        if t >= duration_s {
            return out;
        }
        let mut r = stream.draw();
        r.due_ns = (t * 1e9) as u64;
        r.conn = out.len() % conns.max(1);
        out.push(r);
    }
}

/// Vertices of `view` that the mix never names: ranks past the
/// [`CANDIDATES`], split into a half for bursts and a half for probes, so
/// neither is ever answered from the result cache.
fn fresh_pool(view: &DatasetView, probes: bool) -> &[u32] {
    let rest = &view.by_out_degree[CANDIDATES.min(view.by_out_degree.len() - 1)..];
    let (bursts, probe_half) = rest.split_at(rest.len() / 2);
    if probes && !probe_half.is_empty() {
        probe_half
    } else {
        bursts
    }
}

/// Burst `index` for the K = 8 metric: eight personalised
/// `pagerank iters=5` queries on `dataset`, one per connection, with seed
/// vertices no earlier request or burst has used.
pub fn burst(
    datasets: &[DatasetView],
    dataset: usize,
    index: usize,
    engine: &'static str,
) -> Vec<Request> {
    let view = &datasets[dataset];
    let pool = fresh_pool(view, false);
    (0..8)
        .map(|i| {
            let seed = pool[(index * 8 + i) % pool.len()];
            let spec = JobSpec::PageRank { iters: 5, seed: Some(seed) };
            let line = render_job(&view.name, &spec, engine, "");
            Request { due_ns: 0, conn: i, dataset, spec, engine, line }
        })
        .collect()
}

/// Probe pass `pass` for the per-class metrics: on every dataset in turn,
/// one personalised `pagerank` of `iters` iterations and one `sssp`, each
/// from a vertex nothing else has asked about — so every pass computes the
/// same amount of work on the same datasets, whatever the seed.
pub fn probe_pass(
    datasets: &[DatasetView],
    pass: usize,
    iters: usize,
    engine: &'static str,
    extra: &str,
) -> Vec<Request> {
    let mut out = Vec::new();
    for (dataset, view) in datasets.iter().enumerate() {
        let pool = fresh_pool(view, true);
        let pick = |k: usize| pool[(pass * 2 + k) % pool.len()];
        for spec in [
            JobSpec::PageRank { iters, seed: Some(pick(0)) },
            JobSpec::Sssp { source: pick(1), max_rounds: 256 },
        ] {
            let line = render_job(&view.name, &spec, engine, extra);
            out.push(Request { due_ns: 0, conn: 0, dataset, spec, engine, line });
        }
    }
    out
}

/// FNV-1a over every due time, connection and line — a schedule's identity.
pub fn schedule_hash(reqs: &[Request]) -> u64 {
    let mut h = ihtl_graph::io::Fnv1a::new();
    for r in reqs {
        h.write(&r.due_ns.to_le_bytes());
        h.write(&(r.conn as u64).to_le_bytes());
        h.write(r.line.as_bytes());
    }
    h.finish()
}
