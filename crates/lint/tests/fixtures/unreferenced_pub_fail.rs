//@ path: crates/online/src/fixture.rs
//@ other: crates/online/src/lib.rs: pub use fixture::reexported_only;
//@ other: crates/online/src/lib.rs: pub(crate) use fixture::crate_reexported_only;
//@ other: crates/online/tests/it.rs: // commented_only() is named in a comment
//@ other: crates/online/tests/it.rs: const S: &str = "stringed_only";
//@ other: crates/online/tests/it.rs: fn own_file_only() {}
// A `pub fn` whose name no other file's code uses is a finding: a
// re-export, a comment, a string and a same-named definition elsewhere
// are not callers, and neither is its own file.

pub fn reexported_only() {} //~ deny(unreferenced-pub)

pub fn crate_reexported_only() {} //~ deny(unreferenced-pub)

pub fn commented_only() {} //~ deny(unreferenced-pub)

pub fn stringed_only() {} //~ deny(unreferenced-pub)

pub fn own_file_only() -> u32 { //~ deny(unreferenced-pub)
    7
}

pub struct Gauge;

impl Gauge {
    pub const fn inherent_method(&self) -> u32 { //~ deny(unreferenced-pub)
        own_file_only()
    }
}
