(* Quickstart: two senders share a bottleneck link under BFC.

   Builds a tiny dumbbell topology, attaches the BFC dataplane, runs two
   competing flows plus a burst of short flows, and prints what happened:
   flow completion times, pause/resume counts, and peak buffering.

   Run with: dune exec examples/quickstart.exe *)

module Time = Bfc_engine.Time
module Sim = Bfc_engine.Sim
module Topology = Bfc_net.Topology
module Flow = Bfc_net.Flow
module Scheme = Bfc_sim.Scheme
module Runner = Bfc_sim.Runner

let () =
  let sim = Sim.create () in
  let db = Topology.dumbbell sim ~senders:4 ~gbps:100.0 ~prop:(Time.us 1.0) in
  let env =
    Runner.setup ~topo:db.Topology.d ~scheme:Scheme.bfc ~params:Runner.default_params
  in
  (* Two long flows from distinct senders, plus short flows that arrive
     while the link is busy. *)
  let ids = ref 0 in
  let mk ~src ~size ~at =
    let id = !ids in
    incr ids;
    Flow.make ~id ~src ~dst:db.Topology.receiver ~size ~arrival:at ()
  in
  let flows =
    [
      mk ~src:db.Topology.senders.(0) ~size:2_000_000 ~at:0;
      mk ~src:db.Topology.senders.(1) ~size:2_000_000 ~at:0;
      mk ~src:db.Topology.senders.(2) ~size:20_000 ~at:(Time.us 50.0);
      mk ~src:db.Topology.senders.(3) ~size:20_000 ~at:(Time.us 60.0);
    ]
  in
  Runner.inject env flows;
  Runner.run env ~until:(Time.ms 2.0);
  Runner.drain env ~budget:(Time.ms 5.0);
  Printf.printf "BFC quickstart on a 4-sender dumbbell (100 Gbps, 1 us links)\n\n";
  List.iter
    (fun f ->
      if Flow.complete f then
        Printf.printf "flow %d  size %8d B  fct %8.1f us  slowdown %.2fx\n" f.Flow.id
          f.Flow.size
          (Time.to_us (Flow.fct f))
          (Runner.slowdown env f)
      else Printf.printf "flow %d did not complete!\n" f.Flow.id)
    flows;
  let pauses =
    Array.fold_left
      (fun acc dp -> acc + (Bfc_ir.Compile.stats dp).Bfc_core.Dataplane.pauses_sent)
      0 (Runner.dataplanes env)
  in
  Printf.printf "\npauses sent: %d, drops: %d, completed %d/%d\n" pauses
    (Runner.total_drops env) (Runner.completed env) (Runner.injected env)
