//! The four workloads: their instance sizes, their seeded statement lists,
//! and the oracle that checks every answer against the generator's model.
//!
//! Why each workload exists is recorded in `BENCHMARK.json` and at length
//! in the README; the short form is on [`spec`].

use mood_core::{Answer, Value};

use crate::gen::{
    location_name, random_weight, Class, Model, Rng, Scale, Vehicle, Zipf, COLORS, LB_PER_KG,
    LOCATIONS, WEIGHT_HI, WEIGHT_LO,
};

pub const WORKLOADS: [&str; 4] = [
    "lookup_hot",
    "traverse_cold",
    "analytic_scan",
    "durable_write",
];

/// A result cell in the oracle's own terms.
#[derive(Debug, Clone, PartialEq, PartialOrd)]
pub enum Val {
    I(i64),
    F(f64),
    S(String),
}

pub type Rows = Vec<Vec<Val>>;

/// An engine result in the oracle's terms.
fn rows_of(result: &mood_core::QueryResult) -> Rows {
    let val = |v: &Value| match v {
        Value::Integer(i) => Val::I(*i as i64),
        Value::LongInteger(i) => Val::I(*i),
        Value::Float(x) => Val::F(*x),
        Value::String(s) => Val::S(s.clone()),
        other => Val::S(format!("{other:?}")),
    };
    result
        .rows
        .iter()
        .map(|row| row.iter().map(val).collect())
        .collect()
}

fn same_cell(a: &Val, b: &Val) -> bool {
    match (a, b) {
        // Aggregates may be summed in another order than the oracle's.
        (Val::F(x), Val::F(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
        _ => a == b,
    }
}

fn same_rows(expected: &Rows, got: &Rows, ordered: bool) -> bool {
    let eq = |a: &Rows, b: &Rows| {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same_cell(p, q)))
    };
    if ordered {
        return eq(expected, got);
    }
    let sorted = |rows: &Rows| {
        let mut r = rows.clone();
        r.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        r
    };
    eq(&sorted(expected), &sorted(got))
}

/// Statement classes the per-class latency metrics are cut by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Index-served SELECT by key.
    Lookup,
    /// Fixed-text, set-oriented SELECT.
    Scan,
    Insert,
    /// UPDATE or DELETE by key.
    Update,
    /// `BEGIN` + 8 DML + `COMMIT`, timed as one unit.
    Txn,
    Checkpoint,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `… FROM Vehicle v WHERE v.id = K`
    Point(i32),
    /// `… WHERE v.id = K AND v.manufacturer.location = L`
    PointLoc(i32, u8),
    /// `… WHERE v.id = K AND v.drivetrain.engine.cylinders = C`
    PointCyl(i32, i32),
    /// Index into the workload's fixed texts.
    Fixed(usize),
    Insert {
        id: i32,
        weight: i32,
        color: u8,
    },
    Update {
        id: i32,
        weight: i32,
    },
    Delete(i32),
    Txn(Vec<Stmt>),
    Checkpoint,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub sql: String,
    pub op: Op,
}

impl Stmt {
    fn new(op: Op) -> Stmt {
        let sql = match &op {
            Op::Point(k) => format!("SELECT v.id, v.weight FROM Vehicle v WHERE v.id = {k}"),
            Op::PointLoc(k, loc) => format!(
                "SELECT v.id FROM Vehicle v WHERE v.id = {k} AND v.manufacturer.location = '{}'",
                location_name(*loc)
            ),
            Op::PointCyl(k, c) => format!(
                "SELECT v.id FROM Vehicle v WHERE v.id = {k} AND v.drivetrain.engine.cylinders = {c}"
            ),
            Op::Insert { id, weight, color } => format!(
                "new Vehicle <{id}, {weight}, NULL, NULL, '{}', '{}'>",
                COLORS[*color as usize],
                "w".repeat(INSERT_PAD)
            ),
            Op::Update { id, weight } => {
                format!("UPDATE Vehicle v SET weight = {weight} WHERE v.id = {id}")
            }
            Op::Delete(id) => format!("DELETE FROM Vehicle v WHERE v.id = {id}"),
            Op::Fixed(_) | Op::Txn(_) | Op::Checkpoint => String::new(),
        };
        Stmt { sql, op }
    }

    pub fn kind(&self) -> Kind {
        match self.op {
            Op::Point(_) | Op::PointLoc(..) | Op::PointCyl(..) => Kind::Lookup,
            Op::Fixed(_) => Kind::Scan,
            Op::Insert { .. } => Kind::Insert,
            Op::Update { .. } | Op::Delete(_) => Kind::Update,
            Op::Txn(_) => Kind::Txn,
            Op::Checkpoint => Kind::Checkpoint,
        }
    }
}

/// Pad bytes on vehicles created through `new` (the ~100-byte insert).
const INSERT_PAD: usize = 64;

/// A fixed text with the answer the oracle computed for it at build time
/// (the read-only workloads never change the model).
pub struct Fixed {
    pub sql: String,
    pub ordered: bool,
    pub rows: Rows,
}

/// One workload's statements, in execution order.
pub struct List {
    pub fixed: Vec<Fixed>,
    /// Untimed prefix, charged to set-up.
    pub warm: Vec<Stmt>,
    pub timed: Vec<Stmt>,
    /// Traced after the timed run, never mixed with it.
    pub tail: Vec<Stmt>,
}

/// Segment sizes for a timed body of `body`: a warm-up of 5 %, the body,
/// and a traced tail of 10 %.
fn segments(body: usize) -> [usize; 3] {
    [body / 20, body, body / 10]
}

/// `n` class indices in seeded order, class `i` holding exactly
/// `shares[i]` percent of them (what does not divide goes to the first
/// classes). Exact shares, not draws: classes differ in cost by orders of
/// magnitude, so a mix that varied with the seed would make a pass's cost
/// vary with it.
fn deck(rng: &mut Rng, n: usize, shares: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(n);
    for (class, share) in shares.iter().enumerate() {
        out.resize(out.len() + n * share / 100, class);
    }
    let mut class = 0;
    while out.len() < n {
        out.push(class % shares.len());
        class += 1;
    }
    rng.shuffle(&mut out);
    out
}

/// The warm-up, timed and tail segments, each with the exact class mix
/// `shares`; `make` turns a class index into the next statement.
fn build(
    rng: &mut Rng,
    sizes: [usize; 3],
    shares: &[usize],
    mut make: impl FnMut(usize, &mut Rng) -> Stmt,
) -> [Vec<Stmt>; 3] {
    sizes.map(|n| {
        deck(rng, n, shares)
            .into_iter()
            .map(|class| make(class, rng))
            .collect()
    })
}

/// Check `answer` against the model and apply the statement's effect to it.
/// Must be called once per executed statement, in execution order.
pub fn check(
    model: &mut Model,
    fixed: &[Fixed],
    stmt: &Stmt,
    answer: &mood_core::Result<Answer>,
) -> bool {
    let Ok(answer) = answer else {
        return false;
    };
    let rows_match = |expected: &Rows, ordered: bool| match answer {
        Answer::Rows(r) => same_rows(expected, &rows_of(r), ordered),
        _ => false,
    };
    let own = |id: i32| {
        model
            .vehicles
            .get(id as usize)
            .filter(|v| v.live && v.class == Class::Vehicle)
    };
    let one_if = |hit: bool, id: i32| -> Rows {
        if hit {
            vec![ints(&[id])]
        } else {
            Vec::new()
        }
    };
    match &stmt.op {
        Op::Point(id) => rows_match(
            &own(*id)
                .map(|v| vec![ints(&[v.id, v.weight])])
                .unwrap_or_default(),
            false,
        ),
        Op::PointLoc(id, loc) => rows_match(
            &one_if(
                own(*id).is_some_and(|v| model.location(v) == Some(*loc)),
                *id,
            ),
            false,
        ),
        Op::PointCyl(id, cyl) => rows_match(
            &one_if(
                own(*id).is_some_and(|v| model.cylinders(v) == Some(*cyl)),
                *id,
            ),
            false,
        ),
        Op::Fixed(i) => fixed
            .get(*i)
            .is_some_and(|f| rows_match(&f.rows, f.ordered)),
        Op::Insert { id, weight, color } => {
            let ok = matches!(answer, Answer::Created(Value::Ref(_)))
                && *id as usize == model.vehicles.len();
            model.vehicles.push(Vehicle {
                id: *id,
                weight: *weight,
                class: Class::Vehicle,
                train: None,
                company: None,
                color: *color,
                pad: INSERT_PAD as u32,
                live: true,
            });
            ok
        }
        Op::Update { id, weight } => {
            let hit = own(*id).is_some();
            if hit {
                model.vehicles[*id as usize].weight = *weight;
            }
            *answer
                == Answer::Done {
                    affected: hit as usize,
                }
        }
        Op::Delete(id) => {
            let hit = own(*id).is_some();
            if hit {
                model.vehicles[*id as usize].live = false;
            }
            *answer
                == Answer::Done {
                    affected: hit as usize,
                }
        }
        // The runner checks a transaction's statements one by one.
        Op::Txn(_) | Op::Checkpoint => true,
    }
}

/// Where a workload's pages live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `Mood::in_memory_with_pool`: no device underneath.
    Memory,
    /// `ProbeDisk` charging seek + transfer over a `MemDisk`, `MemLog`.
    ColdMem,
    /// `ProbeDisk` over `FileDisk`, `ProbeLog` over `FileLog`, real fsync.
    File,
}

pub struct Spec {
    pub name: &'static str,
    pub scale: Scale,
    pub frames: usize,
    pub backend: Backend,
    /// Worker threads asked of the engine (capped at `nproc` by the runner).
    pub parallelism: usize,
    /// Statements in the timed body.
    pub body: usize,
    /// `durable_write`: a checkpoint after this many writes.
    pub checkpoint_every: usize,
    build: fn(&Spec, &Model, &mut Rng) -> List,
}

impl Spec {
    pub fn list(&self, model: &Model, seed: u64) -> List {
        (self.build)(
            self,
            model,
            &mut Rng::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 1),
        )
    }
}

/// The workload named `name`, at full or `--smoke` size.
///
/// * `lookup_hot` — resident data, skewed point lookups: the SQL front end
///   and the plan cache do the work, storage almost none.
/// * `traverse_cold` — data ≈ 9× the pool over a charged device: buffer
///   pool, prefetch, heap, B+-tree and join-method choice do the work.
/// * `analytic_scan` — resident data, fixed set-oriented texts: batched
///   operators, compiled predicates, decode and sort/aggregate dominate.
/// * `durable_write` — file-backed with real fsync: WAL, commit force,
///   index maintenance, checkpoints and recovery do the work.
///
/// Body sizes are calibrated so one timed pass takes about two seconds on
/// the two-core sandbox the baseline was recorded on, then frozen.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let small = Scale {
        vehicles: 400,
        autos: 100,
        japanese: 100,
        sharing: 2,
        companies: 40,
        pad: 100,
        sub_pad: 100,
        engine_pad: 200,
    };
    Some(match name {
        "lookup_hot" => Spec {
            name: "lookup_hot",
            scale: if smoke {
                small
            } else {
                Scale {
                    vehicles: 20_000,
                    autos: 5_000,
                    japanese: 5_000,
                    sharing: 2,
                    companies: 400,
                    pad: 100,
                    sub_pad: 100,
                    engine_pad: 200,
                }
            },
            // ~3.7k data pages at full size: everything stays resident.
            frames: 8192,
            backend: Backend::Memory,
            parallelism: 1,
            body: if smoke { 2_000 } else { 60_000 },
            checkpoint_every: 0,
            build: lookup_hot,
        },
        "traverse_cold" => Spec {
            name: "traverse_cold",
            scale: if smoke {
                small
            } else {
                Scale {
                    vehicles: 7_000,
                    autos: 2_500,
                    japanese: 2_500,
                    sharing: 2,
                    companies: 400,
                    pad: 200,
                    sub_pad: 200,
                    engine_pad: 400,
                }
            },
            // ~2.3k data pages at full size: 9× the pool.
            frames: if smoke { 16 } else { 256 },
            backend: Backend::ColdMem,
            parallelism: 2,
            body: if smoke { 60 } else { 240 },
            checkpoint_every: 0,
            build: traverse_cold,
        },
        "analytic_scan" => Spec {
            name: "analytic_scan",
            scale: if smoke {
                small
            } else {
                // The hierarchy must exceed the 65 536-row sort budget for
                // the one spilling ORDER BY; the other texts read the 8k
                // own extent or the 38k non-Japanese part.
                Scale {
                    vehicles: 8_000,
                    autos: 30_000,
                    japanese: 30_000,
                    sharing: 4,
                    companies: 400,
                    pad: 100,
                    sub_pad: 8,
                    engine_pad: 50,
                }
            },
            frames: 16_384,
            backend: Backend::Memory,
            parallelism: 1,
            body: if smoke { 24 } else { 70 },
            checkpoint_every: 0,
            build: analytic_scan,
        },
        "durable_write" => Spec {
            name: "durable_write",
            scale: if smoke {
                small
            } else {
                Scale {
                    vehicles: 1_500,
                    autos: 250,
                    japanese: 250,
                    sharing: 2,
                    companies: 100,
                    pad: 100,
                    sub_pad: 100,
                    engine_pad: 200,
                }
            },
            frames: 1024,
            backend: Backend::File,
            parallelism: 1,
            body: if smoke { 120 } else { 1_200 },
            // Seven per pass; chosen so neither the timed pass nor the
            // traced tail ends on one (the crash would find nothing to redo).
            checkpoint_every: if smoke { 40 } else { 240 },
            build: durable_write,
        },
        _ => return None,
    })
}

fn ints(cells: &[i32]) -> Vec<Val> {
    cells.iter().map(|&c| Val::I(c as i64)).collect()
}

fn not_japanese(c: Class) -> bool {
    c != Class::JapaneseAuto
}

fn own_extent(c: Class) -> bool {
    c == Class::Vehicle
}

/// The next fixed text in rotation.
fn next_fixed(fixed: &[Fixed], cycle: usize, counter: &mut usize) -> Stmt {
    let i = *counter % cycle;
    *counter += 1;
    Stmt {
        sql: fixed[i].sql.clone(),
        op: Op::Fixed(i),
    }
}

fn lookup_hot(spec: &Spec, model: &Model, rng: &mut Rng) -> List {
    let nv = spec.scale.vehicles;
    let own = &model.vehicles[..nv];
    // "Dashboard" texts: short index ranges, re-issued verbatim, so they
    // always hit the plan cache. One-sided ranges only: a two-sided range
    // on an indexed attribute scans the extent today (README, defects).
    let (a, b, c) = (16, 32, 48);
    let (head, tail, colors) = (&own[..a.min(nv)], &own[nv - b.min(nv)..], &own[..c.min(nv)]);
    let mut by_color = [0i64; COLORS.len()];
    for v in colors {
        by_color[v.color as usize] += 1;
    }
    let fixed = vec![
        Fixed {
            sql: format!("SELECT v.id, v.weight FROM Vehicle v WHERE v.id < {a} ORDER BY v.id"),
            ordered: true,
            rows: head.iter().map(|v| ints(&[v.id, v.weight])).collect(),
        },
        Fixed {
            sql: format!(
                "SELECT COUNT(*), AVG(v.weight) FROM Vehicle v WHERE v.id >= {}",
                nv - tail.len()
            ),
            ordered: true,
            rows: vec![vec![
                Val::I(tail.len() as i64),
                Val::F(tail.iter().map(|v| v.weight as f64).sum::<f64>() / tail.len() as f64),
            ]],
        },
        Fixed {
            sql: format!(
                "SELECT v.color, COUNT(*) FROM Vehicle v WHERE v.id < {c} \
                 GROUP BY v.color ORDER BY v.color"
            ),
            ordered: true,
            rows: {
                let mut rows: Rows = by_color
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| **n > 0)
                    .map(|(i, n)| vec![Val::S(COLORS[i].to_string()), Val::I(*n)])
                    .collect();
                rows.sort_by(|x, y| x.partial_cmp(y).expect("no floats"));
                rows
            },
        },
    ];
    // Zipf ranks map to keys through a seeded permutation, so the hot keys
    // are scattered over the extent rather than being its first pages.
    let zipf = Zipf::new(nv, 0.99);
    let mut keys: Vec<i32> = (0..nv as i32).collect();
    rng.shuffle(&mut keys);
    // 70 % point, 20 % path-point, 10 % dashboards. The path literal is a
    // function of the key, so a repeated key repeats its text; a third of
    // the keys get a literal that does not match, so the predicate filters.
    let mut dashboards = 0;
    let [warm, timed, tail] = build(rng, segments(spec.body), &[70, 10, 10, 10], |class, rng| {
        if class == 3 {
            return next_fixed(&fixed, fixed.len(), &mut dashboards);
        }
        let v = &own[keys[zipf.sample(rng)] as usize];
        let miss = v.id % 3 == 0;
        match class {
            1 => {
                let loc = model.location(v).expect("generated");
                let other = (loc + 1) % LOCATIONS as u8;
                Stmt::new(Op::PointLoc(v.id, if miss { other } else { loc }))
            }
            2 => {
                let cyl = model.cylinders(v).expect("generated");
                Stmt::new(Op::PointCyl(v.id, if miss { cyl % 16 + 2 } else { cyl }))
            }
            _ => Stmt::new(Op::Point(v.id)),
        }
    });
    List {
        fixed,
        warm,
        timed,
        tail,
    }
}

fn traverse_cold(spec: &Spec, model: &Model, rng: &mut Rng) -> List {
    // Cut-offs in the uniform weight range: 10 %, 2 % and the top 20 %.
    let (light, lightest, heavy) = (WEIGHT_LO + 150, WEIGHT_LO + 30, WEIGHT_HI - 300);
    let ids = |keep: &dyn Fn(Class) -> bool, pred: &dyn Fn(&Vehicle) -> bool| -> Rows {
        model
            .live(keep)
            .filter(|v| pred(v))
            .map(|v| ints(&[v.id]))
            .collect()
    };
    let fixed = vec![
        // Two hops forward, one local conjunct.
        Fixed {
            sql: format!(
                "SELECT v.id FROM Vehicle v WHERE v.drivetrain.transmission = 'MANUAL' \
                 AND v.weight < {light}"
            ),
            ordered: false,
            rows: ids(&own_extent, &|v| {
                model.manual(v) == Some(true) && v.weight < light
            }),
        },
        // Three hops forward; the last edge is laid out in reference order.
        Fixed {
            sql: "SELECT v.id FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 4".into(),
            ordered: false,
            rows: ids(&own_extent, &|v| model.cylinders(v) == Some(4)),
        },
        // Selective on the far side: cheap when evaluated backward.
        Fixed {
            sql: "SELECT v.id FROM Vehicle v WHERE v.manufacturer.location = 'City007'".into(),
            ordered: false,
            rows: ids(&own_extent, &|v| model.location(v) == Some(7)),
        },
        // EVERY and class-minus only with un-indexed predicates (see the
        // README's defect list).
        Fixed {
            sql: format!("SELECT v.id FROM EVERY Vehicle v WHERE v.weight < {lightest}"),
            ordered: false,
            rows: ids(&|_| true, &|v| v.weight < lightest),
        },
        Fixed {
            sql: format!(
                "SELECT v.id FROM EVERY Vehicle - JapaneseAuto v WHERE v.color = 'red' \
                 AND v.weight > {heavy}"
            ),
            ordered: false,
            rows: ids(&not_japanese, &|v| v.color == 0 && v.weight > heavy),
        },
    ];
    // Uniform keys: each lookup is its own text, a B+-tree descent and a
    // heap page that is almost never resident.
    let nv = spec.scale.vehicles;
    let mut scans = 0;
    let [warm, timed, tail] = build(rng, segments(spec.body), &[80, 20], |class, rng| {
        if class == 1 {
            next_fixed(&fixed, fixed.len(), &mut scans)
        } else {
            Stmt::new(Op::Point(rng.below(nv) as i32))
        }
    });
    List {
        fixed,
        warm,
        timed,
        tail,
    }
}

fn analytic_scan(spec: &Spec, model: &Model, rng: &mut Rng) -> List {
    let own: Vec<&Vehicle> = model.live(own_extent).collect();
    let mut ranged: Vec<&Vehicle> = own
        .iter()
        .copied()
        .filter(|v| (1000..1100).contains(&v.weight))
        .collect();
    ranged.sort_by_key(|v| (v.weight, v.id));
    let mut groups = [(0i64, 0f64); COLORS.len()];
    for v in &own {
        groups[v.color as usize].0 += 1;
        groups[v.color as usize].1 += v.weight as f64;
    }
    let mut group_rows: Rows = groups
        .iter()
        .enumerate()
        .filter(|(_, g)| g.0 > 1)
        .map(|(i, g)| {
            vec![
                Val::S(COLORS[i].into()),
                Val::I(g.0),
                Val::F(g.1 / g.0 as f64),
            ]
        })
        .collect();
    group_rows.sort_by(|x, y| x[0].partial_cmp(&y[0]).expect("strings"));
    let mut colors: Vec<u8> = model.live(not_japanese).map(|v| v.color).collect();
    colors.sort_unstable();
    colors.dedup();
    let mut everyone: Vec<&Vehicle> = model.live(|_| true).collect();
    everyone.sort_by_key(|v| (v.weight, v.id));
    let pounds = 4800.0;
    let mut fixed = vec![
        Fixed {
            sql: "SELECT v.id, v.weight FROM Vehicle v WHERE v.weight >= 1000 AND v.weight < 1100 \
                  ORDER BY v.weight, v.id"
                .into(),
            ordered: true,
            rows: ranged.iter().map(|v| ints(&[v.id, v.weight])).collect(),
        },
        Fixed {
            sql: "SELECT v.color, COUNT(*), AVG(v.weight) FROM Vehicle v GROUP BY v.color \
                  HAVING COUNT(*) > 1 ORDER BY v.color"
                .into(),
            ordered: true,
            rows: group_rows,
        },
        Fixed {
            sql: "SELECT DISTINCT v.color FROM EVERY Vehicle - JapaneseAuto v".into(),
            ordered: false,
            rows: colors
                .iter()
                .map(|c| vec![Val::S(COLORS[*c as usize].into())])
                .collect(),
        },
        // DNF-heavy: three AND-terms, each its own plan, unioned.
        Fixed {
            sql:
                "SELECT v.id FROM Vehicle v WHERE (v.weight < 710 AND v.color = 'red') OR \
                  (v.weight > 2190 AND v.color = 'blue') OR (v.weight = 1500 AND v.color = 'green')"
                    .into(),
            ordered: false,
            rows: own
                .iter()
                .filter(|v| {
                    (v.weight < 710 && v.color == 0)
                        || (v.weight > 2190 && v.color == 1)
                        || (v.weight == 1500 && v.color == 2)
                })
                .map(|v| ints(&[v.id]))
                .collect(),
        },
        // A method predicate: interpreter fallback today.
        Fixed {
            sql: format!("SELECT v.id FROM Vehicle v WHERE v.lbweight() > {pounds:.1}"),
            ordered: false,
            rows: own
                .iter()
                .filter(|v| v.weight as f64 * LB_PER_KG > pounds)
                .map(|v| ints(&[v.id]))
                .collect(),
        },
    ];
    let cycled = fixed.len();
    // One ORDER BY over the whole hierarchy: above the sort budget at full
    // size, so it spills. Issued once per pass, at a seeded position.
    fixed.push(Fixed {
        sql: "SELECT v.id FROM EVERY Vehicle v ORDER BY v.weight, v.id".into(),
        ordered: true,
        rows: everyone.iter().map(|v| ints(&[v.id])).collect(),
    });
    let [warm, mut timed, tail] = {
        let [w, t, l] = segments(spec.body);
        let mut next = 0;
        build(rng, [w, t - 1, l], &[100], |_, _| {
            next_fixed(&fixed, cycled, &mut next)
        })
    };
    let at = rng.below(timed.len() + 1);
    timed.insert(
        at,
        Stmt {
            sql: fixed[cycled].sql.clone(),
            op: Op::Fixed(cycled),
        },
    );
    List {
        fixed,
        warm,
        timed,
        tail,
    }
}

fn durable_write(spec: &Spec, model: &Model, rng: &mut Rng) -> List {
    // The generator tracks which own-extent ids are live as it goes, so
    // every UPDATE/DELETE names a row that exists when it runs.
    let mut live: Vec<i32> = (0..spec.scale.vehicles as i32).collect();
    let mut recent: Vec<i32> = Vec::new();
    let mut next_id = model.vehicles.len() as i32;

    fn insert(
        rng: &mut Rng,
        next_id: &mut i32,
        live: &mut Vec<i32>,
        recent: &mut Vec<i32>,
    ) -> Stmt {
        let id = *next_id;
        *next_id += 1;
        live.push(id);
        recent.push(id);
        if recent.len() > 64 {
            recent.remove(0);
        }
        Stmt::new(Op::Insert {
            id,
            weight: random_weight(rng),
            color: rng.below(COLORS.len()) as u8,
        })
    }
    fn update(rng: &mut Rng, live: &[i32]) -> Stmt {
        Stmt::new(Op::Update {
            id: live[rng.below(live.len())],
            weight: random_weight(rng),
        })
    }
    fn delete(rng: &mut Rng, live: &mut Vec<i32>, recent: &mut Vec<i32>) -> Stmt {
        let id = live.swap_remove(rng.below(live.len()));
        recent.retain(|r| *r != id);
        Stmt::new(Op::Delete(id))
    }

    // 45 % new, 15 % UPDATE, 5 % DELETE, 10 % transactions of 8 DML, 25 %
    // reads of keys written a moment ago (reads beside the writes).
    let segs = build(
        rng,
        segments(spec.body),
        &[45, 15, 5, 10, 25],
        |class, rng| match class {
            0 => insert(rng, &mut next_id, &mut live, &mut recent),
            1 => update(rng, &live),
            2 => delete(rng, &mut live, &mut recent),
            3 => Stmt::new(Op::Txn(
                (0..8)
                    .map(|i| match i {
                        0..=4 => insert(rng, &mut next_id, &mut live, &mut recent),
                        5 | 6 => update(rng, &live),
                        _ => delete(rng, &mut live, &mut recent),
                    })
                    .collect(),
            )),
            _ if recent.is_empty() => Stmt::new(Op::Point(live[rng.below(live.len())])),
            _ => Stmt::new(Op::Point(recent[rng.below(recent.len())])),
        },
    );
    // A checkpoint after every `checkpoint_every` writes, counted across
    // the segments; checkpoints ride along and are not part of the mix.
    let mut writes = 0usize;
    let [warm, timed, tail] = segs.map(|seg| {
        let mut out = Vec::with_capacity(seg.len() + 8);
        for stmt in seg {
            let before = writes;
            writes += match stmt.op {
                Op::Txn(_) => 8,
                Op::Point(_) => 0,
                _ => 1,
            };
            out.push(stmt);
            if before / spec.checkpoint_every != writes / spec.checkpoint_every {
                out.push(Stmt::new(Op::Checkpoint));
            }
        }
        out
    });
    List {
        fixed: Vec::new(),
        warm,
        timed,
        tail,
    }
}

/// The transaction a crash leaves open: acknowledged by no COMMIT, so none
/// of it may be visible after recovery.
pub fn doomed_txn(model: &Model) -> Vec<String> {
    let base = model.vehicles.len() as i32 + 1_000_000;
    let victim = model.live(own_extent).next().map_or(0, |v| v.id);
    vec![
        "BEGIN".into(),
        Stmt::new(Op::Insert {
            id: base,
            weight: 1,
            color: 0,
        })
        .sql,
        Stmt::new(Op::Insert {
            id: base + 1,
            weight: 2,
            color: 1,
        })
        .sql,
        Stmt::new(Op::Update {
            id: victim,
            weight: 1,
        })
        .sql,
    ]
}

pub const SURVIVORS_SQL: &str = "SELECT v.id, v.weight FROM Vehicle v ORDER BY v.id";

/// Acknowledged writes missing after recovery plus unacknowledged ones
/// visible: the size of the symmetric difference between the `(id, weight)`
/// of every live own-extent vehicle in the model and what `SURVIVORS_SQL`
/// returned.
pub fn lost_writes(model: &Model, answer: &mood_core::Result<Answer>) -> u64 {
    let expected: Rows = model
        .live(own_extent)
        .map(|v| ints(&[v.id, v.weight]))
        .collect();
    let Ok(Answer::Rows(r)) = answer else {
        return expected.len() as u64;
    };
    let key = |row: &Vec<Val>| format!("{row:?}");
    let want: std::collections::HashSet<String> = expected.iter().map(key).collect();
    let have: std::collections::HashSet<String> = rows_of(r).iter().map(key).collect();
    want.symmetric_difference(&have).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_are_a_function_of_the_seed() {
        for name in WORKLOADS {
            let spec = spec(name, true).unwrap();
            let model = Model::generate(3, spec.scale);
            let (a, b, c) = (
                spec.list(&model, 3),
                spec.list(&model, 3),
                spec.list(&model, 4),
            );
            assert_eq!(a.timed, b.timed, "{name}");
            assert_eq!(a.warm, b.warm, "{name}");
            assert_eq!(a.tail, b.tail, "{name}");
            assert_ne!(a.timed, c.timed, "{name}: another seed, another list");
            let body = a.timed.iter().filter(|s| s.op != Op::Checkpoint).count();
            assert_eq!(body, spec.body, "{name}");
            assert!(!a.warm.is_empty() && !a.tail.is_empty(), "{name}");
            assert!(a
                .timed
                .iter()
                .all(|s| !s.sql.is_empty() || matches!(s.op, Op::Txn(_) | Op::Checkpoint)));
        }
    }

    #[test]
    fn unordered_comparison_is_a_multiset() {
        let a = vec![ints(&[1]), ints(&[2]), ints(&[2])];
        let b = vec![ints(&[2]), ints(&[1]), ints(&[2])];
        let c = vec![ints(&[2]), ints(&[1]), ints(&[1])];
        assert!(same_rows(&a, &b, false));
        assert!(!same_rows(&a, &b, true));
        assert!(!same_rows(&a, &c, false));
        assert!(same_cell(&Val::F(0.1 + 0.2), &Val::F(0.3)));
    }
}
