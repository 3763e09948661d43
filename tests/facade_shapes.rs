//! Integration: a register and a keyspace are two shapes of one facade.
//!
//! - A register on `S` servers and a one-shard keyspace whose group is all
//!   `S` servers are the same emulation: the same operations return the
//!   same tagged values.
//! - Both shapes apply one rule to every knob: a knob value the register
//!   refuses, the keyspace refuses too.

use std::time::Duration;

use mwr::keyspace::Keyspace;
use mwr::register::{AuditConfig, Backend, Deployment, Protocol, RetryPolicy};
use mwr::types::{ClusterConfig, KeyspaceConfig, RegisterId, TaggedValue, Value};

/// The fixed script both shapes run: writer 0 and writer 1 alternate, and
/// after every write both readers read, in a rotating order.
fn script(
    mut write: impl FnMut(usize, Value) -> TaggedValue,
    mut read: impl FnMut(usize) -> TaggedValue,
) -> Vec<TaggedValue> {
    let mut seen = Vec::new();
    for step in 0..24u64 {
        seen.push(write((step % 2) as usize, Value::new(100 + step)));
        let first = (step / 2 % 2) as usize;
        seen.push(read(first));
        seen.push(read(1 - first));
        if step % 3 == 0 {
            seen.push(read(first));
        }
    }
    seen
}

#[test]
fn a_register_and_a_one_shard_keyspace_return_the_same_values() {
    let register = Deployment::new(ClusterConfig::new(5, 1, 2, 2).unwrap())
        .protocol(Protocol::W2R1)
        .backend(Backend::InMemory)
        .in_memory()
        .unwrap();
    let mut writers = [register.writer(0).unwrap(), register.writer(1).unwrap()];
    let mut readers = [register.reader(0).unwrap(), register.reader(1).unwrap()];
    let from_register = script(
        |w, v| writers[w].write(v).unwrap(),
        |r| readers[r].read().unwrap(),
    );
    drop((writers, readers));
    register.shutdown();

    let keyspace = Keyspace::new(KeyspaceConfig::new(5, 1, 5, 1, 2, 2).unwrap())
        .protocol(Protocol::W2R1)
        .in_memory()
        .unwrap();
    let key = RegisterId::DEFAULT;
    let mut writers = [keyspace.writer(0, key).unwrap(), keyspace.writer(1, key).unwrap()];
    let mut readers = [keyspace.reader(0, key).unwrap(), keyspace.reader(1, key).unwrap()];
    let from_keyspace = script(
        |w, v| writers[w].write(v).unwrap(),
        |r| readers[r].read().unwrap(),
    );
    drop((writers, readers));
    keyspace.shutdown();

    assert_eq!(from_register.len(), 24 * 3 + 8);
    assert_eq!(from_register, from_keyspace);
}

#[test]
fn a_keyspace_refuses_every_knob_value_a_register_refuses() {
    let register = Deployment::new(ClusterConfig::new(5, 1, 2, 2).unwrap()).backend(Backend::InMemory);
    let keyspace = Keyspace::new(KeyspaceConfig::new(5, 1, 3, 8, 2, 2).unwrap());
    let bad_audits =
        [AuditConfig::sampled(0.0), AuditConfig::sampled(1.5), AuditConfig {
            window: 0,
            ..AuditConfig::default()
        }];
    for bad in bad_audits {
        let err = register.audit(bad).in_memory().unwrap_err();
        assert!(err.to_string().starts_with("the audit knob"), "register, {bad:?}: {err}");
        let err = keyspace.audit(bad).in_memory().unwrap_err();
        assert!(err.to_string().starts_with("the audit knob"), "keyspace, {bad:?}: {err}");
    }
    let never = RetryPolicy { attempts: 0, backoff: Duration::ZERO };
    let err = register.retry(never).in_memory().unwrap_err();
    assert!(err.to_string().starts_with("the retry knob"), "register: {err}");
    let err = keyspace.retry(never).in_memory().unwrap_err();
    assert!(err.to_string().starts_with("the retry knob"), "keyspace: {err}");
}
