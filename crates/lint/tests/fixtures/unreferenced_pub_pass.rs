//@ path: crates/online/src/fixture.rs
//@ other: crates/online/tests/it.rs: fn t() { assert_eq!(called_from_a_test(), 1); }
//@ other: perfbench/src/main.rs: fn main() { let _ = Gauge.read_by_the_benchmark(); }
//@ other: crates/cli/src/main.rs: use sm_online::called_from_a_binary;
// A `pub fn` that another file's code names passes, wherever that file
// is: a test, the benchmark, a binary. Narrower visibility, trait
// methods and test-only items are out of the rule's scope, and a waiver
// works as for every rule.

pub fn called_from_a_test() -> u32 {
    1
}

pub fn called_from_a_binary() {}

pub struct Gauge;

impl Gauge {
    pub fn read_by_the_benchmark(&self) -> u32 {
        helper()
    }
}

fn helper() -> u32 {
    2
}

pub(crate) fn crate_visible() {}

impl Default for Gauge {
    fn default() -> Self {
        crate_visible();
        Gauge
    }
}

// sm-lint: allow(unreferenced-pub) — kept public for a caller this fixture does not model
pub fn waived_on_purpose() {}
//~^ waived(unreferenced-pub)

#[cfg(test)]
mod tests {
    pub fn test_helper() {}
}
