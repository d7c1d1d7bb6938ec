//! One module per paper table/figure; each exposes `run()` printing the
//! paper-style rows. A module that has a test returns the structured
//! results the test asserts on; a contract an integration test under
//! `tests/` already asserts is not re-asserted here.

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
