//! K concurrent clients requesting the identical cell must all receive
//! byte-identical outcomes from one shared server session.

use asip_core::session::{EvalRequest, Session};
use asip_isa::codec::Codec;
use asip_serve::{Client, EvalServer, ServerConfig};
use std::sync::{Arc, Barrier};

#[test]
fn concurrent_identical_cells_return_identical_bytes() {
    const K: usize = 6;
    let session = Session::builder().threads(2).build();
    let server = EvalServer::bind(session, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let (addr, _serve) = server.spawn().unwrap();
    let addr = addr.to_string();

    let req = EvalRequest::new(
        asip_workloads::by_name("fir").unwrap(),
        asip_isa::MachineDescription::ember1(),
    );

    // All K clients connect first, then release together so their Eval
    // frames land while the first evaluation is still running.
    let barrier = Arc::new(Barrier::new(K));
    let encodings: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..K)
            .map(|_| {
                let addr = addr.clone();
                let req = req.clone();
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    barrier.wait();
                    let outs = client.eval(std::slice::from_ref(&req)).unwrap();
                    assert_eq!(outs.len(), 1, "one outcome per requested cell");
                    assert!(outs[0].result.is_ok(), "fir on ember1 passes");
                    outs[0].encode_to_vec()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for enc in &encodings[1..] {
        assert_eq!(
            enc, &encodings[0],
            "every client's outcome is byte-identical"
        );
    }

    Client::connect(&addr).unwrap().shutdown().unwrap();
}
