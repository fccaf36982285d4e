//! Synthetic database generators with controlled statistics.

use mood_core::{Mood, Oid, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Specification of a two-class reference database `C --A--> D` for the
/// join-method experiments (X1).
#[derive(Debug, Clone, Copy)]
pub struct RefDbSpec {
    /// |C| — referencing objects.
    pub n_c: usize,
    /// |D| — referenced objects.
    pub n_d: usize,
    /// Padding bytes per object (controls objects/page, hence nbpages).
    /// The defaults make a stored C 176 bytes and a D 236 — the Table 8
    /// instance `reproduce` prints (8 000 Ds on 500 pages in X1).
    pub pad_c: usize,
    pub pad_d: usize,
    /// Buffer-pool frames (small pools reproduce the worst-case model).
    pub pool_frames: usize,
    /// Create a binary join index on C.d?
    pub join_index: bool,
    /// RNG seed (determinism).
    pub seed: u64,
}

impl Default for RefDbSpec {
    fn default() -> Self {
        RefDbSpec {
            n_c: 2000,
            n_d: 500,
            pad_c: 144,
            pad_d: 219,
            pool_frames: 8,
            join_index: false,
            seed: 42,
        }
    }
}

/// Build the C→D database. Returns (db, C-oids, D-oids).
pub fn build_ref_db(spec: &RefDbSpec) -> (Mood, Vec<Oid>, Vec<Oid>) {
    let db = Mood::in_memory_with_pool(spec.pool_frames);
    db.execute("CREATE CLASS D TUPLE (id Integer, payload String)")
        .unwrap();
    db.execute("CREATE CLASS C TUPLE (id Integer, d REFERENCE (D), payload String)")
        .unwrap();
    let catalog = db.catalog();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut d_oids = Vec::with_capacity(spec.n_d);
    for i in 0..spec.n_d {
        d_oids.push(
            catalog
                .new_object(
                    "D",
                    Value::tuple(vec![
                        ("id", Value::Integer(i as i32)),
                        ("payload", Value::string("d".repeat(spec.pad_d))),
                    ]),
                )
                .unwrap(),
        );
    }
    if spec.join_index {
        db.execute("CREATE INDEX ON C(d)").unwrap();
    }
    let mut c_oids = Vec::with_capacity(spec.n_c);
    for i in 0..spec.n_c {
        let target = d_oids[rng.gen_range(0..d_oids.len())];
        c_oids.push(
            catalog
                .new_object(
                    "C",
                    Value::tuple(vec![
                        ("id", Value::Integer(i as i32)),
                        ("d", Value::Ref(target)),
                        ("payload", Value::string("c".repeat(spec.pad_c))),
                    ]),
                )
                .unwrap(),
        );
    }
    db.collect_stats().unwrap();
    (db, c_oids, d_oids)
}

/// Specification of a paper-shaped Vehicle database (X3/X4 and the
/// example-driven experiments at measurable scale).
#[derive(Debug, Clone, Copy)]
pub struct VehicleDbSpec {
    pub n_vehicles: usize,
    pub n_drivetrains: usize,
    pub n_engines: usize,
    pub n_companies: usize,
    /// Distinct cylinder values (the Table 14 `dist`).
    pub cylinder_values: i32,
    pub pool_frames: usize,
    pub seed: u64,
}

impl Default for VehicleDbSpec {
    fn default() -> Self {
        VehicleDbSpec {
            n_vehicles: 2000,
            n_drivetrains: 1000,
            n_engines: 1000,
            n_companies: 400,
            cylinder_values: 16,
            pool_frames: 32,
            seed: 7,
        }
    }
}

/// Build a scaled-down instance of the paper's Vehicle database
/// (Tables 13–15 shape: fan 1 everywhere, drivetrains shared 2:1 by
/// vehicles, one company per vehicle with 10% of companies referenced).
pub fn build_vehicle_db(spec: &VehicleDbSpec) -> Mood {
    let db = Mood::in_memory_with_pool(spec.pool_frames);
    for ddl in [
        "CREATE CLASS VehicleEngine TUPLE (size Integer, cylinders Integer, pad String)",
        "CREATE CLASS VehicleDriveTrain TUPLE (engine REFERENCE (VehicleEngine), \
         transmission String(32))",
        "CREATE CLASS Company TUPLE (name String(32), location String(32))",
        "CREATE CLASS Vehicle TUPLE (id Integer, weight Integer, \
         drivetrain REFERENCE (VehicleDriveTrain), company REFERENCE (Company), \
         pad String)",
    ] {
        db.execute(ddl).unwrap();
    }
    let catalog = db.catalog();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut engines = Vec::with_capacity(spec.n_engines);
    for i in 0..spec.n_engines {
        engines.push(
            catalog
                .new_object(
                    "VehicleEngine",
                    Value::tuple(vec![
                        ("size", Value::Integer(1000 + (i as i32 % 40) * 50)),
                        (
                            "cylinders",
                            Value::Integer(2 + 2 * (rng.gen_range(0..spec.cylinder_values))),
                        ),
                        ("pad", Value::string("e".repeat(430))),
                    ]),
                )
                .unwrap(),
        );
    }
    let mut trains = Vec::with_capacity(spec.n_drivetrains);
    for i in 0..spec.n_drivetrains {
        trains.push(
            catalog
                .new_object(
                    "VehicleDriveTrain",
                    Value::tuple(vec![
                        ("engine", Value::Ref(engines[i % engines.len()])),
                        (
                            "transmission",
                            Value::string(if i % 2 == 0 { "AUTOMATIC" } else { "MANUAL" }),
                        ),
                    ]),
                )
                .unwrap(),
        );
    }
    let mut companies = Vec::with_capacity(spec.n_companies);
    for i in 0..spec.n_companies {
        companies.push(
            catalog
                .new_object(
                    "Company",
                    Value::tuple(vec![
                        ("name", Value::string(format!("Company{i:05}"))),
                        ("location", Value::string("X")),
                    ]),
                )
                .unwrap(),
        );
    }
    // 10% of companies are manufacturers (the Table 15 hitprb = 0.1 shape).
    let manufacturer_pool = (spec.n_companies / 10).max(1);
    for i in 0..spec.n_vehicles {
        catalog
            .new_object(
                "Vehicle",
                Value::tuple(vec![
                    ("id", Value::Integer(i as i32)),
                    ("weight", Value::Integer(700 + (i as i32 % 100) * 12)),
                    ("drivetrain", Value::Ref(trains[i % trains.len()])),
                    (
                        "company",
                        Value::Ref(companies[rng.gen_range(0..manufacturer_pool)]),
                    ),
                    ("pad", Value::string("v".repeat(200))),
                ]),
            )
            .unwrap();
    }
    db.collect_stats().unwrap();
    db
}
