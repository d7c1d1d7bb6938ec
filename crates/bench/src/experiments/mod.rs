//! One module per paper table/figure; each exposes `run()` printing the
//! paper-style rows and returning structured results (asserted in tests).

pub mod ablations;
pub mod audit_sentinel;
pub mod backend;
pub mod chaos_serving;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig_union;
pub mod obs_snapshot;
pub mod recovery;
pub mod sweeps;
pub mod tab02;
pub mod tab03;
pub mod tab_rowsize;
pub mod tailtrace;
pub mod workload_profile;
