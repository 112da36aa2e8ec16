//! Fixture: every allocation ban inside a function tagged `no-alloc-hot`.
//! The tag sits in the function body, so the untagged sibling below, which
//! makes the same calls, stays clean.

fn on_event(ios: &[u8], device: &str) -> (Vec<u8>, Vec<u8>, Vec<u8>, String) {
    #![doc = "tracer-invariant: no-alloc-hot"]
    let copied = ios.to_vec();
    let owned = device.to_string();
    let empty = Vec::new();
    let built = vec![1u8, 2];
    let label = format!("{owned}-{}", built.len());
    let cloned = copied.clone();
    (copied, empty, cloned, label)
}

fn cold_setup(ios: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let copied = ios.to_vec();
    (copied.clone(), Vec::with_capacity(ios.len()))
}
