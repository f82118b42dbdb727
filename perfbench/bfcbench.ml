(* One repeat of one benchmark workload, printed as one JSON record.

   Usage:
     bfcbench.exe --workload bfc-incast|hpcc-incast|stream-churn
                  [--seed N] [--trace 0|1] [--size seed|tiny]
                  [--inject none|incomplete]

   The program generates the workload's flows from the seed, feeds them
   through the public Runner calls and checks the outcome. With
   [--trace 1] it also times its own calls into each layer, wraps the
   mutable Switch.hooks fields of every switch (timing one call in
   [sample_every]) and reads the GC's runtime_events ring between
   simulation slices. run.py builds this program, repeats it and
   aggregates the records; the record's field names are the metric names
   of BENCHMARK.json. *)

module Time = Bfc_engine.Time
module Sim = Bfc_engine.Sim
module Topology = Bfc_net.Topology
module Port = Bfc_net.Port
module Packet = Bfc_net.Packet
module Flow = Bfc_net.Flow
module Switch = Bfc_switch.Switch
module Host = Bfc_transport.Host
module Traffic = Bfc_workload.Traffic
module Arrivals = Bfc_workload.Arrivals
module Dist = Bfc_workload.Dist
module Runner = Bfc_sim.Runner
module Scheme = Bfc_sim.Scheme
module Metrics = Bfc_sim.Metrics
module Exp_common = Bfc_sim.Exp_common
module Sample = Bfc_util.Stats.Sample

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

let secs ns = float_of_int ns /. 1e9

(* ------------------------------------------------------------------ *)
(* Command line *)

type workload = Bfc_incast | Hpcc_incast | Stream_churn

let workload_of_string = function
  | "bfc-incast" -> Bfc_incast
  | "hpcc-incast" -> Hpcc_incast
  | "stream-churn" -> Stream_churn
  | s -> raise (Arg.Bad ("unknown workload " ^ s))

let workload = ref None

let seed = ref 1

let traced = ref false

let tiny = ref false

let inject_incomplete = ref false

let () =
  Arg.parse
    [
      ("--workload", Arg.String (fun s -> workload := Some (workload_of_string s)), "NAME");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--trace", Arg.Int (fun t -> traced := t <> 0), "0|1 per-layer tracing");
      ( "--size",
        Arg.Symbol ([ "seed"; "tiny" ], fun s -> tiny := s = "tiny"),
        " seed-size or tiny inputs" );
      ( "--inject",
        Arg.Symbol ([ "none"; "incomplete" ], fun s -> inject_incomplete := s = "incomplete"),
        " inject a flow that cannot complete (tests the check)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bfcbench.exe --workload NAME [--seed N] [--trace 0|1] [--size seed|tiny]"

(* ------------------------------------------------------------------ *)
(* Per-layer probes (traced runs only) *)

(* Time one call in [sample_every]; the estimate scales the sampled mean
   up to the call count. *)
let sample_every = 64

type probe = { mutable calls : int; mutable timed : int; mutable ns : int }

let probe () = { calls = 0; timed = 0; ns = 0 }

(* Mean cost of reading the clock, subtracted from every sampled call. *)
let clock_overhead_ns =
  lazy
    (let n = 20_000 in
     let acc = ref 0 in
     for _ = 1 to n do
       let t0 = now_ns () in
       acc := !acc + (now_ns () - t0)
     done;
     float_of_int !acc /. float_of_int n)

let mean_ns p =
  if p.timed = 0 then 0.0
  else Float.max 0.0 ((float_of_int p.ns /. float_of_int p.timed) -. Lazy.force clock_overhead_ns)

let est_ns p = mean_ns p *. float_of_int p.calls

let[@inline] sampled p =
  p.calls <- p.calls + 1;
  p.calls mod sample_every = 0

let[@inline] record p t0 =
  p.ns <- p.ns + (now_ns () - t0);
  p.timed <- p.timed + 1

type hook_probes = {
  classify : probe;
  enqueue : probe;
  dequeue : probe;
  ctrl : probe;
  mutable pause_transitions : int;
}

let hooks_probes =
  {
    classify = probe ();
    enqueue = probe ();
    dequeue = probe ();
    ctrl = probe ();
    pause_transitions = 0;
  }

(* Wrap every hook of one switch. The wrappers call the original hook
   with the same arguments and return its result, so the simulation is
   unchanged; the digest check holds them to that. *)
let wrap_hooks sw =
  let hp = hooks_probes in
  let h = Switch.hooks sw in
  let classify = h.Switch.classify
  and on_enqueue = h.Switch.on_enqueue
  and on_dequeue = h.Switch.on_dequeue
  and on_ctrl = h.Switch.on_ctrl
  and on_queue_pause = h.Switch.on_queue_pause in
  h.Switch.classify <-
    (fun sw ~in_port ~egress pkt ->
      if sampled hp.classify then begin
        let t0 = now_ns () in
        let q = classify sw ~in_port ~egress pkt in
        record hp.classify t0;
        q
      end
      else classify sw ~in_port ~egress pkt);
  h.Switch.on_enqueue <-
    (fun sw ~in_port ~egress ~queue pkt ->
      if sampled hp.enqueue then begin
        let t0 = now_ns () in
        on_enqueue sw ~in_port ~egress ~queue pkt;
        record hp.enqueue t0
      end
      else on_enqueue sw ~in_port ~egress ~queue pkt);
  h.Switch.on_dequeue <-
    (fun sw ~egress ~queue pkt ->
      if sampled hp.dequeue then begin
        let t0 = now_ns () in
        on_dequeue sw ~egress ~queue pkt;
        record hp.dequeue t0
      end
      else on_dequeue sw ~egress ~queue pkt);
  h.Switch.on_ctrl <-
    (fun sw ~in_port pkt ->
      if sampled hp.ctrl then begin
        let t0 = now_ns () in
        let consumed = on_ctrl sw ~in_port pkt in
        record hp.ctrl t0;
        consumed
      end
      else on_ctrl sw ~in_port pkt);
  h.Switch.on_queue_pause <-
    (fun sw ~egress ~queue ~paused ->
      hp.pause_transitions <- hp.pause_transitions + 1;
      on_queue_pause sw ~egress ~queue ~paused)

(* ------------------------------------------------------------------ *)
(* GC accounting *)

(* Minor/major GC time from the runtime_events ring of this domain. The
   ring is polled between simulation slices, often enough that it never
   wraps; [lost] counts events it dropped anyway. *)
module Gc_events = struct
  type t = {
    mutable minor_ns : int;
    mutable major_ns : int;
    mutable lost : int;
    mutable minor_t0 : int;
    mutable major_t0 : int;
  }

  let acc = { minor_ns = 0; major_ns = 0; lost = 0; minor_t0 = -1; major_t0 = -1 }

  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t)

  let callbacks =
    lazy
      (Runtime_events.Callbacks.create
         ~runtime_begin:(fun _dom t phase ->
           match phase with
           | Runtime_events.EV_MINOR -> acc.minor_t0 <- ts t
           | Runtime_events.EV_MAJOR_SLICE -> acc.major_t0 <- ts t
           | _ -> ())
         ~runtime_end:(fun _dom t phase ->
           match phase with
           | Runtime_events.EV_MINOR when acc.minor_t0 >= 0 ->
             acc.minor_ns <- acc.minor_ns + (ts t - acc.minor_t0);
             acc.minor_t0 <- -1
           | Runtime_events.EV_MAJOR_SLICE when acc.major_t0 >= 0 ->
             acc.major_ns <- acc.major_ns + (ts t - acc.major_t0);
             acc.major_t0 <- -1
           | _ -> ())
         ~lost_events:(fun _dom n -> acc.lost <- acc.lost + n)
         ())

  let cursor = ref None

  let start () =
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)

  let poll () =
    match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c (Lazy.force callbacks) None)
    | None -> ()

  (* Discard what happened before the measured window. *)
  let reset () =
    poll ();
    acc.minor_ns <- 0;
    acc.major_ns <- 0;
    acc.lost <- 0
end

(* Minor and promoted words allocated inside the simulation slices only,
   never in the benchmark's own bookkeeping between them. Each slice starts
   on an empty minor heap. Without that, the runtime's minor-word count
   depends on where the benchmark's own allocations left the minor heap
   (measured: traced and untraced runs differed by 0.02%), so it would
   not repeat exactly. *)
type alloc = {
  mutable minor_words : float;
  mutable promoted_words : float;
}

let alloc = { minor_words = 0.0; promoted_words = 0.0 }

(* ------------------------------------------------------------------ *)
(* Spans around the benchmark's calls into each layer *)

type spans = {
  mutable topology_ns : int;
  mutable setup_ns : int;
  mutable generate_ns : int;
  mutable generate_in_run_ns : int;
  mutable inject_ns : int;
  mutable inject_in_run_ns : int;
  mutable run_ns : int;
  mutable summary_ns : int;
}

let spans =
  {
    topology_ns = 0;
    setup_ns = 0;
    generate_ns = 0;
    generate_in_run_ns = 0;
    inject_ns = 0;
    inject_in_run_ns = 0;
    run_ns = 0;
    summary_ns = 0;
  }

let observe_probe = probe ()

let peak_heap_words = ref 0

let sample_heap () =
  let hw = (Gc.quick_stat ()).Gc.heap_words in
  if hw > !peak_heap_words then peak_heap_words := hw

(* Advance the simulation through one Runner call, accounting its time
   and allocation; between slices, sample the heap and drain the GC ring. *)
let slice f =
  Gc.minor ();
  let mw0, pw0, _ = Gc.counters () in
  let t0 = now_ns () in
  f ();
  spans.run_ns <- spans.run_ns + (now_ns () - t0);
  let mw1, pw1, _ = Gc.counters () in
  alloc.minor_words <- alloc.minor_words +. (mw1 -. mw0);
  alloc.promoted_words <- alloc.promoted_words +. (pw1 -. pw0);
  sample_heap ();
  if !traced then Gc_events.poll ()

let slice_len = Time.us 200.0

(* Run to [until], then drain until every injected flow completed or
   [budget] more simulated time passed: Runner.run and Runner.drain in
   fixed slices, identical traced and untraced. *)
let run_to_completion env ~until ~budget =
  let sim = Runner.sim env in
  while Sim.now sim < until do
    let t = min until (Sim.now sim + slice_len) in
    slice (fun () -> Runner.run env ~until:t)
  done;
  let deadline = Sim.now sim + budget in
  while Runner.completed env < Runner.injected env && Sim.now sim < deadline do
    let b = min slice_len (deadline - Sim.now sim) in
    slice (fun () -> Runner.drain ~step:slice_len env ~budget:b)
  done

let timed_span add f =
  let t0 = now_ns () in
  let r = f () in
  add (now_ns () - t0);
  r

(* ------------------------------------------------------------------ *)
(* Output helpers *)

type value = I of int | F of float | S of string

let fields : (string * value) list ref = ref []

let put k v = fields := (k, v) :: !fields

let json_value = function
  | I i -> string_of_int i
  | F f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | F _ -> "null"
  | S s -> Printf.sprintf "%S" s

(* Highest percentile that leaves at least ten samples above it, capped
   at p99: with n >= 1000 samples this is p99 itself. *)
let tail_pct n =
  if n <= 10 then 0.0
  else Float.min 99.0 (floor (1000.0 *. (1.0 -. (10.0 /. float_of_int n))) /. 10.0)

let hex_row (s : Metrics.fct_stats) =
  Printf.sprintf "%s|%d|%h|%h|%h|%h" s.Metrics.bucket s.Metrics.count s.Metrics.avg s.Metrics.p50
    s.Metrics.p95 s.Metrics.p99

(* ------------------------------------------------------------------ *)
(* Workloads *)

let spines, tors, hosts_per_tor = Exp_common.clos_scale Exp_common.Quick

let build_clos sim =
  timed_span
    (fun d -> spans.topology_ns <- spans.topology_ns + d)
    (fun () -> Topology.clos sim ~spines ~tors ~hosts_per_tor ~gbps:100.0 ~prop:(Time.us 1.0))

let setup topo scheme params =
  timed_span
    (fun d -> spans.setup_ns <- spans.setup_ns + d)
    (fun () -> Runner.setup ~topo ~scheme ~params)

let wrap_all env = if !traced then Array.iter wrap_hooks (Runner.switches env)

let inject env flows =
  timed_span (fun d -> spans.inject_ns <- spans.inject_ns + d) (fun () -> Runner.inject env flows)

(* fb_hadoop background at 55% core load plus 5% of the paper's 100-to-1
   incast, the Fig. 9-11 mix of Exp_common's standard run. The background
   is cut at a fixed byte count, the bytes a [dur]-long trace offers on
   average, so the work of a run hardly depends on the seed; the trace
   ends when the cut flow arrives and incast events stop there too.
   Returns the flows in arrival order and the trace end. *)
let clos_flows (cl : Topology.clos) ~dur ~seed =
  let hosts = cl.Topology.cl_hosts in
  let n_hosts = Array.length hosts in
  let core_gbps = float_of_int (spines * tors) *. 100.0 in
  let core_fraction = 1.0 -. (float_of_int (hosts_per_tor - 1) /. float_of_int (n_hosts - 1)) in
  let ids = ref 0 in
  let incast_frac = 0.05 in
  let im = Exp_common.default_incast in
  let agg =
    max 100_000 (int_of_float (20e6 *. im.Exp_common.agg_frac_of_paper *. (core_gbps /. 6400.0)))
  in
  let incast =
    Traffic.generate_incast
      {
        Traffic.i_hosts = hosts;
        degree = im.Exp_common.degree;
        agg_size = agg;
        period =
          Traffic.period_for_load ~agg_size:agg ~frac:incast_frac ~ref_capacity_gbps:core_gbps;
        i_duration = 2 * dur;
        i_seed = seed + 1000;
      }
      ~ids
  in
  let spec =
    {
      Traffic.hosts;
      dist = Dist.fb_hadoop;
      arrivals = Arrivals.lognormal_default;
      load = 0.6 -. incast_frac;
      ref_capacity_gbps = core_gbps;
      core_fraction;
      matrix = Traffic.Uniform;
      duration = 2 * dur;
      seed;
      prio_classes = 1;
    }
  in
  let bytes = Traffic.arrival_rate spec *. Dist.mean Dist.fb_hadoop *. float_of_int dur in
  let rec cut acc sum = function
    | f :: rest when sum < bytes -> cut (f :: acc) (sum +. float_of_int f.Flow.size) rest
    | _ -> acc
  in
  let bg = cut [] 0.0 (Traffic.generate spec ~ids) in
  let trace_end =
    match bg with
    | last :: _ -> last.Flow.arrival + 1
    | [] -> dur
  in
  let incast = List.filter (fun f -> f.Flow.arrival < trace_end) incast in
  (Traffic.merge [ List.rev bg; incast ], trace_end)

(* Nominal trace length of the Clos workloads: the Quick profile's
   fb_hadoop duration. *)
let clos_duration () =
  let base = Exp_common.duration Exp_common.Quick ~dist:Dist.fb_hadoop in
  if !tiny then base / 16 else base

(* A flow that arrives after the drain deadline, so it is injected but
   never completes. *)
let unfinishable (cl : Topology.clos) ~at =
  let hosts = cl.Topology.cl_hosts in
  Flow.make ~id:max_int ~src:hosts.(0) ~dst:hosts.(1) ~size:1000 ~arrival:at ()

let failures = ref []

let fail msg = failures := msg :: !failures

let sum_ports topo f =
  let acc = ref 0 in
  Array.iteri
    (fun i _ -> Array.iter (fun p -> acc := !acc + f p) (Topology.ports topo i))
    (Topology.nodes topo);
  !acc

let buffer_summary buffers =
  let nb = Sample.count buffers in
  let pct = tail_pct nb in
  let v = if nb = 0 then nan else Sample.percentile buffers pct /. 1e3 in
  put "buffer_p99_kb" (F v);
  put "buffer_p99_kb.n" (I nb);
  put "buffer_p99_kb.pct" (F pct);
  Printf.sprintf "buffer|%d|%h" nb v

let run_clos scheme =
  let sim = Sim.create () in
  let cl = build_clos sim in
  let params = { Runner.default_params with seed = !seed } in
  let env = setup cl.Topology.t scheme params in
  let dur = clos_duration () in
  let measure_from = dur / 10 in
  let flows, trace_end =
    timed_span (fun d -> spans.generate_ns <- spans.generate_ns + d) (fun () ->
        clos_flows cl ~dur ~seed:!seed)
  in
  let buffers = Metrics.watch_buffers env ~period:(Time.us 5.0) in
  wrap_all env;
  inject env flows;
  let budget = 8 * dur in
  if !inject_incomplete then inject env [ unfinishable cl ~at:(trace_end + budget + Time.us 1.0) ];
  (env, flows, buffers, trace_end, measure_from, budget)

let clos_summary env flows buffers ~measure_from =
  let short = Sample.create () and long = Sample.create () in
  List.iter
    (fun f ->
      if Flow.complete f && (not f.Flow.is_incast) && f.Flow.arrival >= measure_from then begin
        if f.Flow.size < 3_000 then Sample.add short (Runner.slowdown env f);
        if f.Flow.size >= 1_000_000 then Sample.add long (Runner.slowdown env f)
      end)
    flows;
  let n_short = Sample.count short in
  let pct = tail_pct n_short in
  let short_tail = if n_short = 0 then nan else Sample.percentile short pct in
  let long_avg = if Sample.is_empty long then nan else Sample.mean long in
  put "short_p99_slowdown" (F short_tail);
  put "short_p99_slowdown.n" (I n_short);
  put "short_p99_slowdown.pct" (F pct);
  put "long_avg_slowdown" (F long_avg);
  put "long_avg_slowdown.n" (I (Sample.count long));
  Printf.sprintf "short|%d|%h|long|%d|%h" n_short short_tail (Sample.count long) long_avg
  :: buffer_summary buffers
  :: List.map hex_row (Metrics.fct_table env ~since:measure_from flows)

let stream_flows () = if !tiny then 5_000 else 200_000

(* Single-MTU flows at 30% host load, generated in sliding windows inside
   the run; completions feed quantile sketches and transport state is
   reclaimed a few RTTs later (Exp_common.run_stream's workload). *)
let run_stream () =
  let sim = Sim.create () in
  let cl = build_clos sim in
  let params = { Runner.default_params with seed = !seed; streaming = true } in
  let env = setup cl.Topology.t Scheme.bfc params in
  let hosts = cl.Topology.cl_hosts in
  let n_hosts = Array.length hosts in
  let n_flows = stream_flows () in
  let size = params.Runner.mtu in
  let bytes_per_ns = float_of_int n_hosts *. 12.5 *. 0.3 in
  let delta_ns = float_of_int size /. bytes_per_ns in
  let arrival_of k = 1 + int_of_float (float_of_int k *. delta_ns) in
  let horizon = arrival_of n_flows + 1 in
  let rng = Bfc_util.Rng.create !seed in
  let next = ref 0 in
  let gen_until t_end =
    let batch = ref [] in
    while !next < n_flows && arrival_of !next < t_end do
      let src = hosts.(Bfc_util.Rng.int rng n_hosts) in
      let dst = ref src in
      while !dst = src do
        dst := hosts.(Bfc_util.Rng.int rng n_hosts)
      done;
      batch := Flow.make ~id:!next ~src ~dst:!dst ~size ~arrival:(arrival_of !next) () :: !batch;
      incr next
    done;
    List.rev !batch
  in
  let window = Time.us 50.0 in
  let first =
    timed_span
      (fun d -> spans.generate_ns <- spans.generate_ns + d)
      (fun () -> gen_until (2 * window))
  in
  ignore
    (Sim.every sim ~period:window (fun () ->
         let t0 = now_ns () in
         let batch = gen_until (Sim.now sim + (2 * window)) in
         let t1 = now_ns () in
         if batch <> [] then Runner.inject env batch;
         spans.generate_in_run_ns <- spans.generate_in_run_ns + (t1 - t0);
         spans.inject_in_run_ns <- spans.inject_in_run_ns + (now_ns () - t1)));
  let sketches = Metrics.sketches_create ~since:0 () in
  let grace = 4 * Runner.base_rtt env in
  let observe f =
    if !traced && sampled observe_probe then begin
      let t0 = now_ns () in
      Metrics.sketches_observe env sketches f;
      record observe_probe t0
    end
    else Metrics.sketches_observe env sketches f
  in
  Runner.iter_hosts env (fun h ->
      Host.add_on_complete h (fun f ->
          observe f;
          let fid = f.Flow.id and src = f.Flow.src and dst = f.Flow.dst in
          ignore
            (Sim.after sim grace (fun () ->
                 Host.reclaim_flow_state (Runner.host env src) ~flow_id:fid;
                 Host.reclaim_flow_state (Runner.host env dst) ~flow_id:fid))));
  let buffers = Metrics.watch_buffers env ~period:(Time.us 5.0) in
  wrap_all env;
  inject env first;
  let budget = 50 * Runner.base_rtt env in
  if !inject_incomplete then inject env [ unfinishable cl ~at:(horizon + budget + Time.us 1.0) ];
  (env, sketches, buffers, horizon, budget)

let stream_summary sketches buffers =
  let table = Metrics.fct_table_of_sketches sketches in
  let short = List.find (fun (s : Metrics.fct_stats) -> s.Metrics.lo = 0) table in
  put "short_p99_slowdown" (F short.Metrics.p99);
  put "short_p99_slowdown.n" (I short.Metrics.count);
  put "short_p99_slowdown.pct" (F 99.0);
  buffer_summary buffers :: List.map hex_row table

(* ------------------------------------------------------------------ *)

let () =
  let workload =
    match !workload with
    | Some w -> w
    | None ->
      prerr_endline "bfcbench: --workload is required";
      exit 2
  in
  if !traced then begin
    ignore (Lazy.force clock_overhead_ns);
    Gc_events.start ()
  end;
  Gc.full_major ();
  if !traced then Gc_events.reset ();
  let gc0 = Gc.quick_stat () in
  let t_start = now_ns () in
  let summarise f = timed_span (fun d -> spans.summary_ns <- d) f in
  let env, t_setup, rows =
    match workload with
    | Bfc_incast | Hpcc_incast ->
      let scheme = if workload = Bfc_incast then Scheme.bfc else Scheme.hpcc in
      let env, flows, buffers, trace_end, measure_from, budget = run_clos scheme in
      put "workload.flows" (I (List.length flows));
      let t_setup = now_ns () in
      run_to_completion env ~until:trace_end ~budget;
      (env, t_setup, summarise (fun () -> clos_summary env flows buffers ~measure_from))
    | Stream_churn ->
      let env, sketches, buffers, horizon, budget = run_stream () in
      let t_setup = now_ns () in
      run_to_completion env ~until:horizon ~budget;
      put "workload.flows" (I (Runner.injected env - if !inject_incomplete then 1 else 0));
      (env, t_setup, summarise (fun () -> stream_summary sketches buffers))
  in
  let t_end = now_ns () in
  let gc1 = Gc.quick_stat () in
  if !traced then Gc_events.poll ();
  let sim = Runner.sim env in
  let topo = Runner.topo env in
  let events = Runner.events_executed env in
  let tx_packets = sum_ports topo Port.tx_packets in
  let incomplete = Runner.injected env - Runner.completed env in
  let data_drops = Runner.total_drops env in
  if incomplete <> 0 then fail (Printf.sprintf "%d flows incomplete after drain" incomplete);
  if workload = Bfc_incast && data_drops <> 0 then
    fail (Printf.sprintf "BFC dropped %d data packets" data_drops);
  let minor_words_per_event = alloc.minor_words /. float_of_int (max 1 events) in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (rows @ [ string_of_int events; string_of_int tx_packets ])))
  in
  put "wall_s" (F (secs (t_end - t_start)));
  put "setup_s" (F (secs (t_setup - t_start)));
  sample_heap ();
  put "peak_heap_mb"
    (F (float_of_int (!peak_heap_words * (Sys.word_size / 8)) /. 1048576.0));
  put "flows_incomplete" (I incomplete);
  put "digest" (S digest);
  put "exact.engine.events" (I events);
  put "exact.net.tx_packets" (I tx_packets);
  put "exact.gc.minor_words" (F alloc.minor_words);
  if !traced then begin
    let prof = Sim.profile sim in
    let run_s = secs spans.run_ns in
    let hp = hooks_probes in
    let hook_ns = est_ns hp.classify +. est_ns hp.enqueue +. est_ns hp.dequeue +. est_ns hp.ctrl in
    let nested_ns =
      hook_ns +. est_ns observe_probe
      +. float_of_int (spans.generate_in_run_ns + spans.inject_in_run_ns)
    in
    put "engine.events" (I events);
    put "engine.typed_events" (I prof.Sim.p_typed);
    put "engine.closure_events" (I (prof.Sim.p_one_shot + prof.Sim.p_reusable + prof.Sim.p_ticker));
    put "engine.cancels" (I prof.Sim.p_cancels);
    put "engine.queue_hwm" (I prof.Sim.p_heap_hwm);
    put "engine.run_s" (F run_s);
    put "engine.run_self_s" (F (Float.max 0.0 (run_s -. (nested_ns /. 1e9))));
    put "engine.ns_per_event" (F (float_of_int spans.run_ns /. float_of_int (max 1 events)));
    put "net.tx_packets" (I tx_packets);
    put "net.tx_bytes" (I (sum_ports topo Port.tx_bytes));
    let pool = Runner.pool env in
    let allocated = Packet.Pool.allocated pool and recycled = Packet.Pool.recycled pool in
    put "net.pool_allocated" (I allocated);
    put "net.pool_recycle_ratio"
      (F (float_of_int recycled /. float_of_int (max 1 (allocated + recycled))));
    put "switch.classify_calls" (I hp.classify.calls);
    put "switch.classify_ns" (F (mean_ns hp.classify));
    put "switch.enqueue_ns" (F (mean_ns hp.enqueue));
    put "switch.dequeue_ns" (F (mean_ns hp.dequeue));
    put "switch.ctrl_calls" (I hp.ctrl.calls);
    put "switch.ctrl_ns" (F (mean_ns hp.ctrl));
    put "switch.hook_share" (F (hook_ns /. 1e9 /. Float.max 1e-9 run_s));
    put "switch.pause_transitions" (I hp.pause_transitions);
    put "switch.drops" (I data_drops);
    put "switch.pfc_pause_frac" (F (Runner.pfc_pause_fraction env));
    let sent = ref 0 and retx = ref 0 in
    Runner.iter_hosts env (fun h ->
        sent := !sent + Host.bytes_sent h;
        retx := !retx + Host.bytes_retransmitted h);
    put "transport.bytes_sent" (I !sent);
    put "transport.bytes_retx" (I !retx);
    put "transport.goodput_ratio"
      (F (float_of_int (!sent - !retx) /. float_of_int (max 1 !sent)));
    put "workload.generate_s" (F (secs (spans.generate_ns + spans.generate_in_run_ns)));
    put "topology.build_s" (F (secs spans.topology_ns));
    put "runner.setup_s" (F (secs spans.setup_ns));
    put "runner.inject_s" (F (secs (spans.inject_ns + spans.inject_in_run_ns)));
    put "metrics.observe_ns" (F (mean_ns observe_probe));
    put "metrics.summary_s" (F (secs spans.summary_ns));
    put "gc.minor_words_per_event" (F minor_words_per_event);
    put "gc.promoted_words_per_event" (F (alloc.promoted_words /. float_of_int (max 1 events)));
    put "gc.minor_s" (F (secs Gc_events.acc.Gc_events.minor_ns));
    put "gc.major_s" (F (secs Gc_events.acc.Gc_events.major_ns));
    put "gc.share"
      (F
         (secs (Gc_events.acc.Gc_events.minor_ns + Gc_events.acc.Gc_events.major_ns)
         /. secs (t_end - t_start)));
    put "gc.minor_collections" (I (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
    put "gc.major_collections" (I (gc1.Gc.major_collections - gc0.Gc.major_collections));
    put "gc.lost_events" (I Gc_events.acc.Gc_events.lost)
  end;
  put "failures" (S (String.concat "; " (List.rev !failures)));
  print_string "{";
  List.iteri
    (fun i (k, v) -> Printf.printf "%s%S: %s" (if i = 0 then "" else ", ") k (json_value v))
    (List.rev !fields);
  print_endline "}"
