//! Mailboxes for cross-shard messages.
//!
//! One mailbox connects exactly one producer shard to one consumer shard
//! (worker → net or net → worker): a `Vec` behind a mutex, pushed to by
//! the [`Sender`] and emptied by the [`Receiver`]. The windowed driver
//! drains mailboxes only at phase boundaries, when the producer is either
//! quiescent or filling the buffer of the other parity, so the lock is
//! uncontended in practice and a drain returns the producer's push order
//! exactly. A burst of any size just grows the vector — nothing blocks on
//! the consumer (that would deadlock against the barrier) and nothing is
//! dropped. Order across *different* mailboxes is irrelevant by design:
//! the receiver schedules every message into its event queue, which sorts
//! by the canonical `(timestamp, key)` order.

use std::sync::{Arc, Mutex, MutexGuard};

/// Locks the message vector, recovering the data from a poisoned mutex: a
/// panicking thread can only have poisoned it mid-`push`/`append`, both of
/// which leave the vector structurally valid, and the run is already being
/// shut down via the driver's panic diagnostics.
fn lock<T>(m: &Mutex<Vec<T>>) -> MutexGuard<'_, Vec<T>> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The producer half of a mailbox.
pub struct Sender<T>(Arc<Mutex<Vec<T>>>);

/// The consumer half of a mailbox.
pub struct Receiver<T>(Arc<Mutex<Vec<T>>>);

/// Creates a mailbox with room for `capacity` messages before its vector
/// first grows.
pub fn channel<T: Send>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let messages = Arc::new(Mutex::new(Vec::with_capacity(capacity)));
    (Sender(Arc::clone(&messages)), Receiver(messages))
}

impl<T: Send> Sender<T> {
    /// Sends a message. Never blocks on the consumer.
    pub fn send(&mut self, value: T) {
        lock(&self.0).push(value);
    }
}

impl<T: Send> Receiver<T> {
    /// Drains every available message into `out`, in the producer's push
    /// order. The mailbox keeps its allocation.
    pub fn drain_into(&mut self, out: &mut Vec<T>) {
        out.append(&mut lock(&self.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn roundtrip_in_order() {
        let (mut tx, mut rx) = channel::<u32>(8);
        for i in 0..5 {
            tx.send(i);
        }
        let mut out = Vec::new();
        rx.drain_into(&mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        out.clear();
        rx.drain_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn bursts_beyond_capacity_grow_without_loss_and_keep_order() {
        let (mut tx, mut rx) = channel::<usize>(4);
        for i in 0..100 {
            tx.send(i);
        }
        let mut out = Vec::new();
        rx.drain_into(&mut out);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn works_across_threads_without_loss() {
        // The consumer drains *concurrently* here, which the windowed
        // driver never does to a buffer being filled (its barriers keep
        // the producer off it); losslessness must hold all the same. The
        // phase-style tests above hold the order assertions.
        let (mut tx, mut rx) = channel::<u64>(64);
        let producer = std::thread::spawn(move || {
            for i in 0..10_000u64 {
                tx.send(i);
            }
            tx
        });
        let mut got = Vec::new();
        while got.len() < 10_000 {
            rx.drain_into(&mut got);
        }
        producer.join().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..10_000).collect::<Vec<_>>(), "no loss, no dupes");
    }

    #[test]
    fn undrained_messages_are_dropped_cleanly() {
        // Messages with a destructor left in the mailbox must not leak.
        let flag = Arc::new(AtomicUsize::new(0));
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut tx, rx) = channel::<Counted>(8);
        for _ in 0..5 {
            tx.send(Counted(Arc::clone(&flag)));
        }
        drop(tx);
        drop(rx);
        assert_eq!(flag.load(Ordering::SeqCst), 5);
    }
}
