//! Admission control: a batch over the server's in-flight cell limit is
//! answered with a typed `Busy`, and the rejection shows in the server's
//! counters over the `Metrics` RPC.
//!
//! The only test in this binary: the counters are process-global, so no
//! other server may run beside it.

use asip_core::session::{EvalRequest, Session};
use asip_serve::{Client, EvalServer, ServerConfig};

#[test]
fn admission_overload_answers_typed_busy() {
    // A server with a one-cell admission limit must reject a two-cell
    // batch with Busy — and count the rejection.
    let session = Session::builder().threads(1).build();
    let config = ServerConfig {
        max_in_flight_cells: 1,
        ..ServerConfig::default()
    };
    let server = EvalServer::bind(session, "127.0.0.1:0", config).unwrap();
    let (addr, _serve) = server.spawn().unwrap();
    let addr = addr.to_string();

    let req = EvalRequest::new(
        asip_workloads::by_name("fir").unwrap(),
        asip_isa::MachineDescription::ember1(),
    );
    let mut client = Client::connect(&addr).unwrap();
    match client.eval(&[req.clone(), req.clone()]) {
        Err(asip_serve::ServeError::Busy { in_flight, limit }) => {
            assert_eq!(limit, 1);
            assert!(in_flight <= 1);
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    // A batch that fits still works on the same connection.
    let outs = client.eval(std::slice::from_ref(&req)).unwrap();
    assert_eq!(outs.len(), 1);

    let metrics = client.metrics().unwrap().metrics;
    assert_eq!(metrics.counter("serve.busy_rejections"), 1);
    assert_eq!(
        metrics.counter("serve.cells"),
        1,
        "only the admitted batch counts cells"
    );

    client.shutdown().unwrap();
}
