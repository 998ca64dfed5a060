//! One module per experiment; `common` holds the shared machinery.

pub mod bulkload;
pub mod common;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig8;
pub mod fig9;
pub mod msgsize;
pub mod protocols;
pub mod table1;
