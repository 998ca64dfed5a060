//! Fixture: a crate root that breaks both `[workspace.lints.rust]`
//! entries, `unsafe_code` and `missing_docs`.

pub struct Raw(*const u8);

unsafe impl Send for Raw {}
