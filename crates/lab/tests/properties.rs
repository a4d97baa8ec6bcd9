//! Property tests for the TOML subset and the scenario mapping:
//! `parse ∘ serialize = id` at both the document and the scenario level.

use churnbal_cluster::{
    ArrivalKind, ArrivalProcess, ChannelModel, ChurnModel, DelayLaw, DownPolicy, ExternalArrival,
};
use churnbal_core::PolicySpec;
use churnbal_lab::scenario::{ArrivalsSpec, NetworkSpec, NodeSpec, Scenario, TopologySpec};
use churnbal_lab::sweep::{Axis, AxisParam};
use churnbal_lab::toml::{Doc, Table, Value};
use proptest::prelude::*;

// ---- document-level strategies ----------------------------------------

fn scalar() -> BoxedStrategy<Value> {
    prop_oneof![
        prop_oneof![
            Just("plain".to_string()),
            Just(String::new()),
            Just("with \"quotes\" and \\ backslash".to_string()),
            Just("hash # inside".to_string()),
            Just("newline\nand\ttab".to_string()),
            Just("unicode: λ_f → ∞".to_string()),
        ]
        .prop_map(Value::Str),
        (-1_000_000i64..1_000_000).prop_map(Value::Int),
        prop_oneof![
            (-1.0e6..1.0e6f64).prop_map(Value::Float),
            Just(Value::Float(0.05)),
            Just(Value::Float(-0.0)),
            Just(Value::Float(5e-324)),
            Just(Value::Float(1.797_693_134_862_315_7e308)),
            Just(Value::Float(1.0 / 3.0)),
        ],
        prop::bool::ANY.prop_map(Value::Bool),
    ]
    .boxed()
}

fn value() -> BoxedStrategy<Value> {
    prop_oneof![
        scalar(),
        prop::collection::vec(scalar(), 0..4).prop_map(Value::Array),
    ]
    .boxed()
}

fn key() -> BoxedStrategy<String> {
    prop_oneof![
        Just("alpha".to_string()),
        Just("beta-2".to_string()),
        Just("under_score".to_string()),
        Just("x".to_string()),
        Just("UPPER".to_string()),
        Just("k9".to_string()),
    ]
    .boxed()
}

fn table() -> BoxedStrategy<Table> {
    prop::collection::vec((key(), value()), 0..5)
        .prop_map(|pairs| {
            let mut t = Table::new();
            for (k, v) in pairs {
                t.set(k, v); // duplicate keys collapse, keeping the table legal
            }
            t
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn doc_round_trip_is_identity(
        root in table(),
        named in prop::collection::vec(table(), 0..3),
        grouped in prop::collection::vec(table(), 0..4),
    ) {
        let mut doc = Doc { root, ..Doc::default() };
        let table_names = ["first", "second", "third"];
        for (i, t) in named.into_iter().enumerate() {
            doc.set_table(table_names[i], t);
        }
        for t in grouped {
            doc.push_array("group", t);
        }
        let text = doc.serialize();
        let back = Doc::parse(&text);
        prop_assert!(back.is_ok(), "reparse failed: {:?}\n{text}", back.err());
        prop_assert_eq!(doc, back.unwrap(), "round trip changed the doc:\n{}", text);
    }

    #[test]
    fn scalar_values_survive_the_text_form_bit_exactly(v in scalar()) {
        let mut doc = Doc::default();
        doc.root.set("v", v);
        let text = doc.serialize();
        let back = Doc::parse(&text).expect("reparse");
        // PartialEq on f64 treats -0.0 == 0.0; compare bits for floats.
        match (doc.root.get("v"), back.root.get("v")) {
            (Some(Value::Float(a)), Some(Value::Float(b))) => {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "float changed: {} -> {}", a, b);
            }
            (a, b) => prop_assert_eq!(a, b),
        }
    }
}

// ---- scenario-level strategies ----------------------------------------

fn node_spec() -> BoxedStrategy<NodeSpec> {
    (0.1..5.0f64, 0.0..0.2f64, 0.01..0.5f64, 0u32..200, 1u32..4)
        .prop_map(|(s, f, r, m, c)| NodeSpec {
            service_rate: s,
            failure_rate: f,
            recovery_rate: r,
            initial_tasks: m,
            count: c,
        })
        .boxed()
}

fn policy_spec() -> BoxedStrategy<PolicySpec> {
    prop_oneof![
        Just(PolicySpec::NoBalancing),
        (0usize..2, 0.0..1.0f64).prop_map(|(s, g)| PolicySpec::Lbp1 {
            sender: s,
            receiver: 1 - s,
            gain: g,
        }),
        Just(PolicySpec::Lbp1Optimal),
        (0.0..1.0f64).prop_map(|g| PolicySpec::Lbp2 { gain: g }),
        Just(PolicySpec::Lbp2Optimal),
        (0.0..1.0f64).prop_map(|g| PolicySpec::EpisodicLbp2 { gain: g }),
        Just(PolicySpec::DynamicLbp1),
        (0.0..1.0f64).prop_map(|g| PolicySpec::InitialBalanceOnly { gain: g }),
        Just(PolicySpec::UponFailureOnly),
    ]
    .boxed()
}

fn arrivals_spec() -> BoxedStrategy<ArrivalsSpec> {
    prop_oneof![
        Just(ArrivalsSpec::None),
        prop::collection::vec((0.0..100.0f64, 0usize..2, 1u32..50), 1..4).prop_map(|list| {
            ArrivalsSpec::Fixed(
                list.into_iter()
                    .map(|(time, node, tasks)| ExternalArrival { time, node, tasks })
                    .collect(),
            )
        }),
        (0.01..3.0f64, 1.0..200.0f64, 1u32..4, 0u32..8).prop_map(|(rate, horizon, lo, extra)| {
            ArrivalsSpec::Process(ArrivalProcess {
                kind: ArrivalKind::Poisson { rate },
                batch_min: lo,
                batch_max: lo + extra,
                horizon,
            })
        }),
        (0.0..1.0f64, 0.5..5.0f64, 0.01..1.0f64, 1.0..100.0f64).prop_map(
            |(quiet, burst, switch, horizon)| {
                ArrivalsSpec::Process(ArrivalProcess {
                    kind: ArrivalKind::Mmpp {
                        rates: vec![quiet, burst],
                        switch_rates: vec![switch, switch * 2.0],
                    },
                    batch_min: 1,
                    batch_max: 6,
                    horizon,
                })
            }
        ),
        (0.1..2.0f64, 0.0..1.0f64, 5.0..100.0f64).prop_map(|(base, amp, period)| {
            ArrivalsSpec::Process(ArrivalProcess {
                kind: ArrivalKind::Diurnal {
                    base_rate: base,
                    amplitude: amp,
                    period,
                },
                batch_min: 1,
                batch_max: 3,
                horizon: 80.0,
            })
        }),
        (0.1..1.0f64, 0.0..40.0f64, 1.0..20.0f64, 1.0..10.0f64).prop_map(
            |(base, start, dur, factor)| {
                ArrivalsSpec::Process(ArrivalProcess {
                    kind: ArrivalKind::FlashCrowd {
                        base_rate: base,
                        spike_start: start,
                        spike_duration: dur,
                        spike_factor: factor,
                    },
                    batch_min: 1,
                    batch_max: 4,
                    horizon: 60.0,
                })
            }
        ),
    ]
    .boxed()
}

fn churn_model() -> BoxedStrategy<ChurnModel> {
    prop_oneof![
        Just(ChurnModel::Independent),
        (0.01..0.5f64, 0.05..1.0f64).prop_map(|(rate, p)| ChurnModel::CorrelatedShocks {
            shock_rate: rate,
            hit_probability: p,
        }),
        (0.0..5.0f64).prop_map(|a| ChurnModel::Cascading { amplification: a }),
        (
            0.01..0.5f64,
            1u32..8,
            prop::collection::vec(0.0..1.0f64, 1..5),
        )
            .prop_map(|(rate, group, probs)| ChurnModel::RackShocks {
                shock_rate: rate,
                group_size: group,
                hit_probabilities: probs,
            }),
    ]
    .boxed()
}

fn topology_spec() -> BoxedStrategy<Option<TopologySpec>> {
    prop_oneof![
        Just(None),
        Just(Some(TopologySpec::Complete)),
        Just(Some(TopologySpec::Ring)),
        (1u32..6, 1u32..6).prop_map(|(rows, cols)| Some(TopologySpec::Torus { rows, cols })),
        (
            2u32..6,
            prop_oneof![
                0u64..1_000_000_000,
                Just(u64::MAX),
                Just(i64::MAX as u64 + 1)
            ],
        )
            .prop_map(|(degree, seed)| Some(TopologySpec::RandomRegular { degree, seed })),
        (1u32..5, 1u32..4, 1u32..4, 1.0..10.0f64, 1.0..20.0f64).prop_map(
            |(rack_size, racks_per_row, rows, row_scale, dc_scale)| {
                Some(TopologySpec::Hierarchical {
                    rack_size,
                    racks_per_row,
                    rows,
                    row_scale,
                    dc_scale,
                })
            }
        ),
    ]
    .boxed()
}

fn axis() -> BoxedStrategy<Axis> {
    (
        prop_oneof![
            Just(AxisParam::Gain),
            Just(AxisParam::FailureScale),
            Just(AxisParam::RecoveryScale),
            Just(AxisParam::ArrivalScale),
            Just(AxisParam::DelayPerTask),
            Just(AxisParam::NodeCount),
        ],
        prop::collection::vec(0.0..3.0f64, 1..5),
    )
        .prop_map(|(param, values)| Axis { param, values })
        .boxed()
}

fn channel_model() -> BoxedStrategy<ChannelModel> {
    prop_oneof![
        Just(ChannelModel::Reliable),
        (
            0.0..0.99f64,
            prop_oneof![
                Just(DownPolicy::Enqueue),
                Just(DownPolicy::Drop),
                Just(DownPolicy::Bounce),
            ],
            0u32..6,
            0.01..2.0f64,
        )
            .prop_map(|(loss_probability, on_down, max_retries, retry_backoff)| {
                ChannelModel::Lossy {
                    loss_probability,
                    on_down,
                    max_retries,
                    retry_backoff,
                }
            },),
    ]
    .boxed()
}

fn scenario() -> BoxedStrategy<Scenario> {
    let head = (
        prop_oneof![
            Just("prop-a".to_string()),
            Just("prop-b".to_string()),
            Just("weird λ name".to_string()),
        ],
        prop_oneof![Just(String::new()), Just("a description".to_string())],
        1u64..2000,
        // Seeds cover the full u64 range: values above i64::MAX travel
        // through the TOML integer in two's complement.
        prop_oneof![
            0u64..1_000_000_000,
            Just(u64::MAX),
            Just(0x9000_0000_0000_0000u64),
            Just(i64::MAX as u64 + 1),
        ],
        prop_oneof![Just(None), (1.0..500.0f64).prop_map(Some)],
        prop_oneof![Just(None), (0.05..10.0f64).prop_map(Some)],
        prop_oneof![
            Just(None),
            Just(Some("journals".to_string())),
            Just(Some("out/run λ".to_string())),
        ],
    );
    let body = (
        prop::collection::vec(node_spec(), 1..4),
        (0.0..0.5f64, 0.001..0.5f64).prop_map(|(fixed, per_task)| (fixed, per_task)),
        prop_oneof![
            Just(DelayLaw::ExponentialBatch),
            Just(DelayLaw::ErlangPerTask),
            Just(DelayLaw::DeterministicBatch),
        ],
        arrivals_spec(),
        (churn_model(), channel_model()),
        topology_spec(),
        policy_spec(),
        prop::collection::vec(axis(), 0..3),
    );
    (head, body)
        .prop_map(
            |(
                (name, description, reps, seed, deadline, probe_dt, journal_dir),
                (nodes, (fixed, per_task), law, arrivals, (churn, channel), topology, policy, axes),
            )| Scenario {
                name,
                description,
                reps,
                seed,
                deadline,
                probe_dt,
                journal_dir,
                nodes,
                network: NetworkSpec {
                    fixed,
                    per_task,
                    law,
                },
                arrivals,
                churn,
                channel,
                topology,
                policy,
                axes,
            },
        )
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The headline satellite property: any scenario — valid or not as an
    /// experiment — maps to text and back without loss.
    #[test]
    fn scenario_round_trip_is_identity(sc in scenario()) {
        let text = sc.to_toml();
        let back = Scenario::from_toml(&text);
        prop_assert!(back.is_ok(), "reparse failed: {:?}\n{text}", back.err());
        prop_assert_eq!(sc, back.unwrap(), "round trip changed the scenario:\n{}", text);
    }

    /// Valid scenarios keep building the same config after a text trip.
    #[test]
    fn config_is_stable_under_round_trip(sc in scenario()) {
        // Randomly assembled specs may fail validation: fine, the
        // round-trip identity above still covers them.
        prop_assume!(sc.system_config().is_ok());
        let config = sc.system_config().expect("just checked");
        let back = Scenario::from_toml(&sc.to_toml()).expect("round trip");
        let config2 = back.system_config().expect("still valid");
        prop_assert_eq!(config, config2);
    }
}
