//! Violating fixture for R3: two lock types, and two guards held
//! across a Platform port call.

use std::cell::RefCell;

pub struct Env {
    org: parking_lot::RwLock<Model>,
    log: std::sync::Mutex<Vec<String>>,
    inner: RefCell<State>,
}

impl Env {
    // Held-across-port: the `org` read guard is live at the trader() call.
    pub fn read_across_port(&self) {
        let org = self.org.read();
        let offers = self.platform.trader().import(&org);
        drop(offers);
    }

    // Held-across-port: the `inner` borrow is live at the trader() call.
    pub fn borrow_across_port(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.offers = self.platform.trader().import_all();
    }

    // Temporary borrow: released at the end of the statement, fine.
    pub fn temporary_borrow(&self) {
        self.inner.borrow_mut().check();
        let _offers = self.platform.trader().import_all();
    }
}
