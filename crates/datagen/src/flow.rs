//! IP flow records — the paper's motivating application.
//!
//! A flow is a sequence of packets from a source to a destination through
//! one router, which dumps a summary tuple per flow (Sect. 2.1). This
//! generator emits the denormalized `Flow` fact relation with the schema of
//! the paper, Zipf-skewed across autonomous systems and flow sizes, and
//! with the property used in the paper's Examples 2/5: **all flows of a
//! given `source_as` pass through one router** (`router_id` functionally
//! determines a `source_as` range), making `source_as` a partition
//! attribute when partitioning by router.

use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skalla_relation::{ColumnBuilder, Columns, DataType, Relation, Schema, Value};

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Number of flow tuples.
    pub flows: usize,
    /// Number of routers (= natural number of warehouse sites).
    pub routers: usize,
    /// Number of source autonomous systems.
    pub source_as: usize,
    /// Number of destination autonomous systems.
    pub dest_as: usize,
    /// Zipf skew of AS popularity and flow sizes.
    pub skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl FlowConfig {
    /// A default network: 8 routers, 200 source AS, 100 destination AS.
    pub fn new(flows: usize, seed: u64) -> FlowConfig {
        FlowConfig {
            flows,
            routers: 8,
            source_as: 200,
            dest_as: 100,
            skew: 1.0,
            seed,
        }
    }

    /// A tiny deterministic dataset for unit tests and doc examples.
    pub fn small(seed: u64) -> FlowConfig {
        FlowConfig {
            flows: 400,
            routers: 4,
            source_as: 24,
            dest_as: 12,
            skew: 0.8,
            seed,
        }
    }
}

/// The `Flow` fact relation schema (paper Sect. 2.1, minus the mask
/// attributes which no example uses).
pub fn flow_schema() -> Schema {
    Schema::of(&[
        ("router_id", DataType::Int),
        ("source_ip", DataType::Str),
        ("source_port", DataType::Int),
        ("source_as", DataType::Int),
        ("dest_ip", DataType::Str),
        ("dest_port", DataType::Int),
        ("dest_as", DataType::Int),
        ("start_time", DataType::Int),
        ("end_time", DataType::Int),
        ("num_packets", DataType::Int),
        ("num_bytes", DataType::Int),
    ])
}

/// The router that carries a source AS: contiguous AS ranges per router,
/// so `source_as` is a partition attribute under router partitioning.
pub fn router_of(source_as: i64, n_source_as: usize, n_routers: usize) -> i64 {
    let per = n_source_as.div_ceil(n_routers) as i64;
    (source_as / per).min(n_routers as i64 - 1)
}

fn ip_string(rng: &mut StdRng) -> String {
    format!(
        "{}.{}.{}.{}",
        rng.gen_range(1..224u32),
        rng.gen_range(0..256u32),
        rng.gen_range(0..256u32),
        rng.gen_range(1..255u32)
    )
}

const WELL_KNOWN_PORTS: [i64; 6] = [80, 443, 25, 53, 22, 8080];

/// Generate the flow relation, as columns.
#[expect(clippy::expect_used, reason = "one builder per field, of the field's type")]
pub fn generate_flows(cfg: &FlowConfig) -> Relation {
    assert!(cfg.routers > 0 && cfg.source_as > 0 && cfg.dest_as > 0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let sas_dist = Zipf::new(cfg.source_as, cfg.skew);
    let das_dist = Zipf::new(cfg.dest_as, cfg.skew);
    let size_dist = Zipf::new(64, cfg.skew.max(0.5));
    let schema = flow_schema();
    let mut cols: Vec<ColumnBuilder> =
        (schema.fields().iter()).map(|f| ColumnBuilder::new(f.data_type(), cfg.flows)).collect();
    for _ in 0..cfg.flows {
        let sas = sas_dist.sample(&mut rng) as i64;
        let das = das_dist.sample(&mut rng) as i64;
        let router = router_of(sas, cfg.source_as, cfg.routers);
        let start = rng.gen_range(0..86_400i64);
        let duration = rng.gen_range(1..600i64);
        // Flow sizes: Zipf rank → packets, bytes ≈ packets × payload.
        let rank = size_dist.sample(&mut rng) as i64;
        let packets = 1 + rank * rng.gen_range(1..20i64);
        let bytes = packets * rng.gen_range(40..1500i64);
        // ~70% of traffic on well-known ports (the "web traffic" queries).
        let dport = if rng.gen_bool(0.7) {
            WELL_KNOWN_PORTS[rng.gen_range(0..WELL_KNOWN_PORTS.len())]
        } else {
            rng.gen_range(1024..65_536i64)
        };
        let row = [
            Value::Int(router),
            Value::str(ip_string(&mut rng)),
            Value::Int(rng.gen_range(1024..65_536i64)),
            Value::Int(sas),
            Value::str(ip_string(&mut rng)),
            Value::Int(dport),
            Value::Int(das),
            Value::Int(start),
            Value::Int(start + duration),
            Value::Int(packets),
            Value::Int(bytes),
        ];
        cols.iter_mut().zip(&row).for_each(|(c, v)| c.push(v));
    }
    let cols = Columns::new(cfg.flows, cols.into_iter().map(ColumnBuilder::finish).collect());
    Relation::from_columns(schema, cols).expect("the builders are the schema's")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_and_count() {
        let r = generate_flows(&FlowConfig::small(1));
        assert_eq!(r.len(), 400);
        assert_eq!(r.schema(), &flow_schema());
        // Built as columns, cell for cell what the rows would build.
        assert_eq!(r.columns(), &Columns::from_rows(r.schema(), r.rows()));
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            generate_flows(&FlowConfig::small(5)),
            generate_flows(&FlowConfig::small(5))
        );
    }

    #[test]
    fn router_determined_by_source_as() {
        let cfg = FlowConfig::small(2);
        let r = generate_flows(&cfg);
        let (rid, sas) = (
            r.schema().index_of("router_id").unwrap(),
            r.schema().index_of("source_as").unwrap(),
        );
        for row in &r {
            assert_eq!(
                row.get(rid).as_i64().unwrap(),
                router_of(row.get(sas).as_i64().unwrap(), cfg.source_as, cfg.routers)
            );
        }
    }

    #[test]
    fn router_ranges_are_contiguous_and_disjoint() {
        // source_as values of different routers never interleave.
        let n_as = 24;
        let n_routers = 4;
        let mut last = -1i64;
        for asn in 0..n_as as i64 {
            let r = router_of(asn, n_as, n_routers);
            assert!(r >= last, "router ids non-decreasing in AS order");
            last = r;
        }
        assert_eq!(router_of(0, n_as, n_routers), 0);
        assert_eq!(router_of(23, n_as, n_routers), 3);
    }

    #[test]
    fn times_and_sizes_sane() {
        let r = generate_flows(&FlowConfig::small(3));
        let s = r.schema();
        let (st, et, np, nb) = (
            s.index_of("start_time").unwrap(),
            s.index_of("end_time").unwrap(),
            s.index_of("num_packets").unwrap(),
            s.index_of("num_bytes").unwrap(),
        );
        for row in &r {
            assert!(row.get(et).as_i64().unwrap() > row.get(st).as_i64().unwrap());
            assert!(row.get(np).as_i64().unwrap() >= 1);
            assert!(row.get(nb).as_i64().unwrap() >= 40);
        }
    }

    #[test]
    fn traffic_is_skewed_across_sources() {
        let cfg = FlowConfig::small(4);
        let r = generate_flows(&cfg);
        let sas = r.schema().index_of("source_as").unwrap();
        let head = r
            .iter()
            .filter(|row| row.get(sas).as_i64().unwrap() < 3)
            .count();
        assert!(head * 3 > r.len(), "head ASes carry > 1/3: {head}/{}", r.len());
    }
}
