//! Fixture: the conforming reference slot loop R8 compares the
//! stepper against (the violation lives in `core/src/step.rs`).

pub fn drive(nodes: &mut [Node], m: &mut Monitor, slot: u64) {
    wake_phase(nodes, m, slot);
    for n in nodes.iter_mut() {
        n.on_deadline(slot);
        m.after_deadline(slot);
    }
    for n in nodes.iter_mut() {
        let msg = n.message(slot);
        m.on_transmit(slot, msg);
    }
    for n in nodes.iter_mut() {
        n.on_receive(slot);
        m.after_receive(slot);
    }
}

fn wake_phase(nodes: &mut [Node], m: &mut Monitor, slot: u64) {
    for n in nodes.iter_mut() {
        n.on_wake(slot);
        m.after_wake(slot);
    }
}
