module Packet = Bfc_net.Packet

type config = {
  assignment : Dqa.policy;
  table_mult : int;
  sticky_hrtt_mult : float;
  th_factor : float;
  fixed_th : int option;
  sampling : float;
  incast_label : bool;
  bitmap_period : Bfc_engine.Time.t option;
  max_upstream_q : int;
  seed : int;
}

let default_config =
  {
    assignment = Dqa.Dynamic;
    table_mult = 100;
    sticky_hrtt_mult = 2.0;
    th_factor = 1.0;
    fixed_th = None;
    sampling = 1.0;
    incast_label = false;
    bitmap_period = None;
    max_upstream_q = 256;
    seed = 1;
  }

type stats = {
  mutable pauses_sent : int;
  mutable resumes_sent : int;
  mutable packets_counted : int;
  mutable queue_collisions : int;
  mutable assignments : int;
  mutable random_assignments : int;
}

let apply_ctrl ~set_paused ~n_queues pkt =
  match pkt.Packet.kind with
  | Packet.Pause ->
    if pkt.Packet.ctrl_a >= 0 && pkt.Packet.ctrl_a < n_queues then
      set_paused ~queue:pkt.Packet.ctrl_a true
  | Packet.Resume ->
    if pkt.Packet.ctrl_a >= 0 && pkt.Packet.ctrl_a < n_queues then
      set_paused ~queue:pkt.Packet.ctrl_a false
  | Packet.Pause_bitmap ->
    let want = Array.make n_queues false in
    Array.iter (fun q -> if q >= 0 && q < n_queues then want.(q) <- true) pkt.Packet.ints;
    for q = 0 to n_queues - 1 do
      set_paused ~queue:q want.(q)
    done
  | _ -> ()
