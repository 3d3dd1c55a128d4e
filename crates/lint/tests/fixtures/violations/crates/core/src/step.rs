//! Fixture: a slot stepper that delivers before it transmits — R8 must
//! flag the Receive/Transmit inversion against the lockstep
//! reference.

pub struct SlotStepper;

impl SlotStepper {
    pub fn step(&mut self, slot: u64) {
        self.node.on_wake(slot);
        self.node.on_deadline(slot);
        self.node.on_receive(slot, 0);
        let msg = self.node.message(slot);
        self.sink.on_transmit(slot, msg);
    }
}
