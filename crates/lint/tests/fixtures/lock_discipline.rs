//! Fixture: lock-order guard discipline (a `_` guard, a re-lock).

use std::sync::{Mutex, PoisonError};

pub fn discards_guard(m: &Mutex<u32>) {
    let _ = m.lock();
}

pub fn relocks(m: &Mutex<u32>) -> u32 {
    let guard = m.lock().unwrap_or_else(PoisonError::into_inner);
    let again = m.lock();
    *guard + u32::from(again.is_ok())
}
