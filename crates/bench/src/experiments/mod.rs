//! One module per reproduced table/figure plus the ablations.

pub mod ablations;
pub mod bench_partition;
pub mod extensions;
pub mod fig1;
pub mod fig11;
pub mod fig1315;
pub mod fig18;
pub mod fig2;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod fig3;
pub mod fig46;
pub mod fig5;
pub mod fig8;
pub mod table34;
pub mod tables;
