// lint-as: crates/lapi/src/engine.rs
// Fixture: raw identifiers are plain identifiers. `r#type` must not open a
// raw string that swallows the rest of the file, and `r#while` must not
// read as a `while` loop around the `recv` below it (no L6). Expect two
// findings after them: L2 on the `HashMap` line, L1 on `Instant::now`.

fn raw_params(r#type: u32, r#while: &Chan) -> u32 {
    let _pkt = r#while.recv();
    r#type
}

fn after_raw(m: &HashMap<u32, u32>) -> usize {
    let _t = Instant::now();
    m.len()
}
