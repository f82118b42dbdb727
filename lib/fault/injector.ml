module Sim = Bfc_engine.Sim
module Time = Bfc_engine.Time
module Topology = Bfc_net.Topology
module Node = Bfc_net.Node
module Port = Bfc_net.Port
module Switch = Bfc_switch.Switch
module Compile = Bfc_ir.Compile
module Runner = Bfc_sim.Runner
module Tracer = Bfc_sim.Tracer
module Registry = Bfc_obs.Registry

(* Per directed port: the injector owns the port's fault predicate and
   composes link-down state with an optional loss model. *)
(* [down_epoch] counts down-transitions of the directed port; scheduled
   restores capture it so a later, independent outage of the same link is
   never resurrected by an earlier fault's timer. *)
type link_state = {
  lport : Port.t;
  mutable down : bool;
  mutable down_epoch : int;
  mutable loss : Loss.t option;
}

(* Telemetry probes, when the injector is attached with a registry. *)
type probes = {
  reg : Registry.t;
  c_down : Registry.counter;
  c_up : Registry.counter;
  c_reboot : Registry.counter;
  c_flushed : Registry.counter;
}

type t = {
  env : Runner.env;
  tracer : Tracer.t option;
  links : (int, link_state) Hashtbl.t; (* gid -> state *)
  probes : probes option;
}

let bump t f = match t.probes with None -> () | Some p -> Registry.incr p.reg (f p)

let attach ?tracer ?registry env =
  let probes =
    Option.map
      (fun reg ->
        {
          reg;
          c_down = Registry.counter reg "fault_link_downs";
          c_up = Registry.counter reg "fault_link_ups";
          c_reboot = Registry.counter reg "fault_reboots";
          c_flushed = Registry.counter reg "fault_packets_flushed";
        })
      registry
  in
  let t = { env; tracer; links = Hashtbl.create 64; probes } in
  (match registry with
  | None -> ()
  | Some reg ->
    Registry.gauge reg "fault_links_down" (fun () ->
        (* commutative count; bfc-lint: allow det-hashtbl-order *)
        float_of_int (Hashtbl.fold (fun _ s n -> if s.down then n + 1 else n) t.links 0));
    Registry.gauge reg "fault_packets_lost" (fun () ->
        (* commutative sum; bfc-lint: allow det-hashtbl-order *)
        float_of_int (Hashtbl.fold (fun _ s acc -> acc + Port.faults_injected s.lport) t.links 0)));
  t

let note t ~node ev =
  match t.tracer with None -> () | Some tr -> Tracer.note tr t.env ~node ev

let state t ~gid =
  match Hashtbl.find_opt t.links gid with
  | Some s -> s
  | None ->
    let p = Topology.port_by_gid (Runner.topo t.env) gid in
    let s = { lport = p; down = false; down_epoch = 0; loss = None } in
    Port.set_fault p (fun pkt ->
        s.down || (match s.loss with Some l -> Loss.decide l pkt | None -> false));
    Hashtbl.add t.links gid s;
    s

(* The opposite direction of the same link: the peer's egress port whose
   local index is where our packets arrive. *)
let reverse_port t p =
  let topo = Runner.topo t.env in
  (Topology.ports topo (Port.peer p).Node.id).(Port.peer_port p)

(* The node that owns (transmits on) a directed port. *)
let owner t p = (Port.peer (reverse_port t p)).Node.id

let set_loss t ~gid loss = (state t ~gid).loss <- Some loss

let clear_loss t ~gid = (state t ~gid).loss <- None

let set_loss_everywhere t loss =
  let topo = Runner.topo t.env in
  for gid = 0 to Topology.total_ports topo - 1 do
    set_loss t ~gid loss
  done

let clear_loss_everywhere t =
  let topo = Runner.topo t.env in
  for gid = 0 to Topology.total_ports topo - 1 do
    clear_loss t ~gid
  done

let mark_down s =
  if not s.down then begin
    s.down <- true;
    s.down_epoch <- s.down_epoch + 1
  end

let set_directed_down t ~gid down =
  let s = state t ~gid in
  if down then mark_down s else s.down <- false

let is_down t ~gid = (state t ~gid).down

let link_down t ~gid =
  let s = state t ~gid in
  if not s.down then begin
    mark_down s;
    mark_down (state t ~gid:(Port.gid (reverse_port t s.lport)));
    bump t (fun p -> p.c_down);
    note t ~node:(owner t s.lport) (Tracer.Link_down { gid })
  end

let link_up t ~gid =
  let s = state t ~gid in
  if s.down then begin
    s.down <- false;
    (state t ~gid:(Port.gid (reverse_port t s.lport))).down <- false;
    bump t (fun p -> p.c_up);
    note t ~node:(owner t s.lport) (Tracer.Link_up { gid })
  end

let flap t ~gid ~start ~down_for ~period ~count =
  if down_for <= 0 || period <= down_for then invalid_arg "Injector.flap: down_for/period";
  let sim = Runner.sim t.env in
  for i = 0 to count - 1 do
    let at = start + (i * period) in
    ignore (Sim.at sim at (fun () -> link_down t ~gid));
    ignore (Sim.at sim (at + down_for) (fun () -> link_up t ~gid))
  done

let find_switch t ~node =
  let found = ref None in
  Array.iter
    (fun sw -> if Switch.node_id sw = node then found := Some sw)
    (Runner.switches t.env);
  match !found with
  | Some sw -> sw
  | None -> invalid_arg (Printf.sprintf "Injector: node %d is not a switch" node)

let find_dataplane t ~node =
  Array.find_opt
    (fun dp -> Switch.node_id (Compile.switch dp) = node)
    (Runner.dataplanes t.env)

let reboot_switch t ~node ?down_for () =
  let sw = find_switch t ~node in
  (* Take the switch's links down first so in-flight deliveries during the
     outage are lost too, then flush. The tracer logs the reboot through
     the switch's [on_reboot] hook. *)
  (match down_for with
  | None -> ()
  | Some d ->
    let sim = Runner.sim t.env in
    for e = 0 to Switch.n_ports sw - 1 do
      let gid = Port.gid (Switch.port sw e) in
      let s = state t ~gid in
      (* A link already down belongs to an earlier, independent fault:
         taking it "down again" must neither bump the fault counters a
         second time nor let this crash-restart timer resurrect it before
         that fault's own recovery. The epoch capture also keeps two
         overlapping reboots from cutting each other's outage short. *)
      if not s.down then begin
        link_down t ~gid;
        let epoch = s.down_epoch in
        ignore
          (Sim.after sim d (fun () ->
               if s.down && s.down_epoch = epoch then link_up t ~gid))
      end
    done);
  let flushed = Switch.reboot sw in
  (match find_dataplane t ~node with Some dp -> Compile.reset dp | None -> ());
  bump t (fun p -> p.c_reboot);
  (match t.probes with
  | Some p -> Registry.add p.reg p.c_flushed flushed
  | None -> ());
  flushed

let faults_injected t =
  (* commutative sum, order-independent; bfc-lint: allow det-hashtbl-order *)
  Hashtbl.fold (fun _ s acc -> acc + Port.faults_injected s.lport) t.links 0
