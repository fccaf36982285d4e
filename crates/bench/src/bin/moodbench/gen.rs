//! Seeded generator for a scaled instance of the paper's §3.1 schema.
//!
//! The object graph is kept in plain Rust ([`Model`]) next to the loaded
//! database: it is the oracle every statement's answer is checked against,
//! and the source of the "bytes of user data" that `space_amp` divides by.
//! The knobs are OCB's: object counts, sharing ratio (vehicles per
//! drivetrain), reference locality (scattered vs. laid out in reference
//! order) and pad size.

use std::sync::Arc;
use std::time::Instant;

use mood_core::{Answer, MethodSig, Mood, Oid, TypeDescriptor, Value};

/// SplitMix64 — own generator so a statement list depends on nothing but
/// the seed (not on the vendored `rand` stand-in, which later PRs may swap).
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

pub const COLORS: [&str; 8] = [
    "red", "blue", "green", "black", "white", "silver", "yellow", "orange",
];
pub const LOCATIONS: usize = 50;
/// Vehicle→drivetrain references jump by a prime stride, so consecutive
/// vehicles land on unrelated drivetrain pages (clustering factor ≈ 0).
const STRIDE: usize = 7919;
/// Weights are uniform in `WEIGHT_LO .. WEIGHT_HI`.
pub const WEIGHT_LO: i32 = 700;
pub const WEIGHT_HI: i32 = 2200;

pub fn random_weight(rng: &mut Rng) -> i32 {
    WEIGHT_LO + rng.below((WEIGHT_HI - WEIGHT_LO) as usize) as i32
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Vehicle,
    Automobile,
    JapaneseAuto,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Vehicle => "Vehicle",
            Class::Automobile => "Automobile",
            Class::JapaneseAuto => "JapaneseAuto",
        }
    }
}

/// Instance size. Ids `0..vehicles` are own-extent `Vehicle` objects (the
/// only indexed ones), then `autos` Automobiles, then `japanese`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub vehicles: usize,
    pub autos: usize,
    pub japanese: usize,
    /// Vehicles (whole hierarchy) per drivetrain — OCB's sharing ratio.
    pub sharing: usize,
    pub companies: usize,
    /// Pad bytes on own-extent Vehicles and on drivetrains.
    pub pad: usize,
    /// Pad bytes on subclass instances.
    pub sub_pad: usize,
    pub engine_pad: usize,
}

impl Scale {
    pub fn hierarchy(&self) -> usize {
        self.vehicles + self.autos + self.japanese
    }

    pub fn trains(&self) -> usize {
        let n = (self.hierarchy() / self.sharing).max(1);
        // Keep the (prime) stride coprime to the count so every train is
        // referenced.
        match n % STRIDE {
            0 => n + 1,
            _ => n,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Vehicle {
    pub id: i32,
    pub weight: i32,
    pub class: Class,
    /// `None` for vehicles created through `new` (literals only).
    pub train: Option<u32>,
    pub company: Option<u32>,
    pub color: u8,
    /// Bytes in the `pad` attribute.
    pub pad: u32,
    pub live: bool,
}

pub struct Model {
    pub scale: Scale,
    /// Indexed by id; deleted vehicles stay with `live == false`.
    pub vehicles: Vec<Vehicle>,
    /// `(engine index, is MANUAL)`; train `i` references engine `i`, so the
    /// engine extent is laid out in reference order (clustering factor ≈ 1).
    pub trains: Vec<(u32, bool)>,
    /// `(size, cylinders)`.
    pub engines: Vec<(i32, i32)>,
    /// Location index per company.
    pub companies: Vec<u8>,
}

/// What [`Model::load`] measured while populating a database.
pub struct Loaded {
    /// OIDs of the own-extent Vehicles, by id.
    pub vehicle_oids: Vec<Oid>,
    pub objects: usize,
    pub load_s: f64,
    pub stats_s: f64,
}

/// Logical bytes of one vehicle (see [`Model::user_bytes`]).
pub fn row_bytes(v: &Vehicle) -> usize {
    let refs = v.train.map_or(0, |_| 8) + v.company.map_or(0, |_| 8);
    8 + refs + COLORS[v.color as usize].len() + v.pad as usize
}

pub fn location_name(idx: u8) -> String {
    format!("City{idx:03}")
}

impl Model {
    pub fn generate(seed: u64, scale: Scale) -> Model {
        let mut rng = Rng::new(seed);
        let n_trains = scale.trains();
        let engines = (0..n_trains)
            .map(|i| (1000 + (i as i32 % 40) * 50, 2 + 2 * rng.below(8) as i32))
            .collect();
        let trains = (0..n_trains)
            .map(|i| (i as u32, rng.below(2) == 1))
            .collect();
        let companies = (0..scale.companies)
            .map(|_| rng.below(LOCATIONS) as u8)
            .collect();
        let vehicles = (0..scale.hierarchy())
            .map(|i| Vehicle {
                id: i as i32,
                weight: random_weight(&mut rng),
                class: if i < scale.vehicles {
                    Class::Vehicle
                } else if i < scale.vehicles + scale.autos {
                    Class::Automobile
                } else {
                    Class::JapaneseAuto
                },
                train: Some(((i * STRIDE) % n_trains) as u32),
                company: Some(rng.below(scale.companies) as u32),
                color: rng.below(COLORS.len()) as u8,
                pad: if i < scale.vehicles {
                    scale.pad
                } else {
                    scale.sub_pad
                } as u32,
                live: true,
            })
            .collect();
        Model {
            scale,
            vehicles,
            trains,
            engines,
            companies,
        }
    }

    pub fn cylinders(&self, v: &Vehicle) -> Option<i32> {
        v.train
            .map(|t| self.engines[self.trains[t as usize].0 as usize].1)
    }

    pub fn manual(&self, v: &Vehicle) -> Option<bool> {
        v.train.map(|t| self.trains[t as usize].1)
    }

    pub fn location(&self, v: &Vehicle) -> Option<u8> {
        v.company.map(|c| self.companies[c as usize])
    }

    /// Live vehicles whose class passes `keep`, in id order.
    pub fn live(&self, keep: impl Fn(Class) -> bool) -> impl Iterator<Item = &Vehicle> {
        self.vehicles
            .iter()
            .filter(move |v| v.live && keep(v.class))
    }

    /// Logical bytes of user data: 4 per integer, 8 per reference, the byte
    /// length of each string. Independent of the engine's codec, so a
    /// change to the stored format moves `space_amp` and not its divisor.
    pub fn user_bytes(&self) -> u64 {
        let s = &self.scale;
        let engines = self.engines.len() * (8 + s.engine_pad);
        let trains: usize = self
            .trains
            .iter()
            .map(|(_, manual)| 8 + if *manual { 6 } else { 9 } + s.pad)
            .sum();
        let companies = self.companies.len() * (12 + 7);
        let vehicles: usize = self.vehicles.iter().filter(|v| v.live).map(row_bytes).sum();
        (engines + trains + companies + vehicles) as u64
    }

    /// Create the schema and populate `db` through the catalog (the
    /// non-SQL loader path: `new` takes literals only, references need
    /// `Value::Ref`), then index the hierarchy root, collect statistics and
    /// register the native `lbweight()` method.
    pub fn load(&self, db: &Mood) -> Result<Loaded, String> {
        let err = |e: mood_core::MoodError| e.to_string();
        for ddl in [
            "CREATE CLASS VehicleEngine TUPLE (size Integer, cylinders Integer, pad String)",
            "CREATE CLASS VehicleDriveTrain TUPLE (engine REFERENCE (VehicleEngine), \
             transmission String(32), pad String)",
            "CREATE CLASS Company TUPLE (name String(32), location String(32))",
            "CREATE CLASS Vehicle TUPLE (id Integer, weight Integer, \
             drivetrain REFERENCE (VehicleDriveTrain), manufacturer REFERENCE (Company), \
             color String(16), pad String) METHODS: lbweight () Float,",
            "CREATE CLASS Automobile INHERITS FROM Vehicle",
            "CREATE CLASS JapaneseAuto INHERITS FROM Automobile",
        ] {
            db.execute(ddl).map_err(err)?;
        }
        let t0 = Instant::now();
        let s = &self.scale;
        let mut objects = 0usize;
        let mut new = |class: &str, fields: Vec<(&str, Value)>| -> Result<Oid, String> {
            objects += 1;
            db.new_object(class, Value::tuple(fields)).map_err(err)
        };
        let engine_pad = "e".repeat(s.engine_pad);
        let mut engines = Vec::with_capacity(self.engines.len());
        for (size, cylinders) in &self.engines {
            engines.push(new(
                "VehicleEngine",
                vec![
                    ("size", Value::Integer(*size)),
                    ("cylinders", Value::Integer(*cylinders)),
                    ("pad", Value::string(engine_pad.clone())),
                ],
            )?);
        }
        let pad = "p".repeat(s.pad);
        let mut trains = Vec::with_capacity(self.trains.len());
        for (engine, manual) in &self.trains {
            trains.push(new(
                "VehicleDriveTrain",
                vec![
                    ("engine", Value::Ref(engines[*engine as usize])),
                    (
                        "transmission",
                        Value::string(if *manual { "MANUAL" } else { "AUTOMATIC" }),
                    ),
                    ("pad", Value::string(pad.clone())),
                ],
            )?);
        }
        let mut companies = Vec::with_capacity(self.companies.len());
        for (i, loc) in self.companies.iter().enumerate() {
            companies.push(new(
                "Company",
                vec![
                    ("name", Value::string(format!("Company{i:05}"))),
                    ("location", Value::string(location_name(*loc))),
                ],
            )?);
        }
        let mut vehicle_oids = Vec::with_capacity(s.vehicles);
        for v in &self.vehicles {
            let oid = new(
                v.class.name(),
                vec![
                    ("id", Value::Integer(v.id)),
                    ("weight", Value::Integer(v.weight)),
                    (
                        "drivetrain",
                        Value::Ref(trains[v.train.expect("generated") as usize]),
                    ),
                    (
                        "manufacturer",
                        Value::Ref(companies[v.company.expect("generated") as usize]),
                    ),
                    ("color", Value::string(COLORS[v.color as usize])),
                    ("pad", Value::string("p".repeat(v.pad as usize))),
                ],
            )?;
            if v.class == Class::Vehicle {
                vehicle_oids.push(oid);
            }
        }
        let load_s = t0.elapsed().as_secs_f64();
        // Index the hierarchy root only: `EVERY <Class>` plus a chosen
        // index drops subclass instances today (see README, defects).
        match db
            .execute("CREATE UNIQUE INDEX ON Vehicle(id)")
            .map_err(err)?
        {
            Answer::Done { .. } => {}
            other => return Err(format!("CREATE INDEX answered {other:?}")),
        }
        let t1 = Instant::now();
        db.collect_stats().map_err(err)?;
        let stats_s = t1.elapsed().as_secs_f64();
        db.register_native_method(
            "Vehicle",
            MethodSig::new("lbweight", TypeDescriptor::float(), vec![]),
            Arc::new(|recv, _args, _res| {
                let w = recv.field("weight").and_then(|v| v.as_f64()).unwrap_or(0.0);
                Ok(Value::Float(w * LB_PER_KG))
            }),
        )
        .map_err(err)?;
        Ok(Loaded {
            vehicle_oids,
            objects,
            load_s,
            stats_s,
        })
    }
}

/// The paper's `lbweight()` conversion factor.
pub const LB_PER_KG: f64 = 2.2075;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_model_and_zipf_is_skewed() {
        let scale = Scale {
            vehicles: 200,
            autos: 50,
            japanese: 50,
            sharing: 3,
            companies: 20,
            pad: 16,
            sub_pad: 4,
            engine_pad: 8,
        };
        let a = Model::generate(7, scale);
        let b = Model::generate(7, scale);
        let c = Model::generate(8, scale);
        let weights = |m: &Model| m.vehicles.iter().map(|v| v.weight).collect::<Vec<_>>();
        assert_eq!(weights(&a), weights(&b));
        assert_ne!(weights(&a), weights(&c));
        assert_eq!(a.user_bytes(), b.user_bytes());

        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(1);
        let top = (0..10_000).filter(|_| z.sample(&mut rng) < 10).count();
        assert!(
            top > 3_000,
            "rank<10 should draw ~39% of samples, got {top}"
        );
    }
}
