//! Valid fault specs shared by the parser tests: `spec_mutations.rs`
//! here and `tests/fault_spec_display.rs` at the workspace root.

/// Valid specs: every profile, the plans the golden replays use, and one
/// list that sets every key.
pub const SPECS: [&str; 9] = [
    "off",
    "light,seed=11",
    "heavy,corrupt=0.3,resume=false,seed=11",
    "chaos,partition=1,seed=11",
    "chaos,rack-size=2,rack=0.3,seed=11",
    "pressure,cap=0.01,leak=0.6,leak-window=300,seed=11",
    "heavy,chunk-mb=0.5,dump-retries=3,restore-retries=2",
    "seed=7,dump=0.1,restore=0.1,corrupt=0.05,am=0.02,stall=0.1,slowdown=3,\
     window=600,backoff=5,escalation=120,crash=0.01,rack=0.005,downtime=300,\
     crash-window=3600,partition=0.5,penalty=4,partition-window=1800",
    "rack-size=4,breaker=0.5,breaker-min=4,breaker-cooldown=300,\
     breaker-decay=0.9,cap=0.5,leak=0.25,leak-gb=2,leak-window=300,\
     chunk-mb=16,resume=true",
];
