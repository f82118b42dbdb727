(* The two shipped dataplanes expressed as IR programs.

   Given a Dataplane / Credit_dataplane config record and the switch
   dimensions, these builders emit the pipeline that Compile.attach
   installs on the switch. Everything runs at load time — this whole file
   is control-plane code. *)

module Dataplane = Bfc_core.Dataplane
module Credit_dataplane = Bfc_core.Credit_dataplane

let pow2_ceil n =
  let r = ref 1 in
  while !r < n do
    r := !r * 2
  done;
  !r

(* Flow-table entry: queue assignment (8) + size counter (24) + last-touch
   timestamp (32), matching Flow_table.entry. *)
let flow_entry_bits = 64

let flow_table ~ports ~queues_per_port ~mult =
  {
    Ir.t_name = "flow_table";
    t_keys = [ (Ir.F_egress, Ir.Exact); (Ir.F_fid_hash, Ir.Exact) ];
    t_entries = ports * pow2_ceil (mult * queues_per_port);
    t_entry_bits = flow_entry_bits;
  }

let th_table ~ports ~queues_per_port =
  {
    Ir.t_name = "th_table";
    t_keys = [ (Ir.F_egress, Ir.Exact); (Ir.F_n_active, Ir.Exact) ];
    t_entries = ports * (queues_per_port + 1);
    t_entry_bits = 24;
  }

let dqa_bitmap ~ports ~classes ~qpc =
  { Ir.r_name = "dqa_bitmap"; r_entries = ports * classes; r_bits = qpc - 1; r_init = 0 }

let stage ?(tables = []) ?(registers = []) ?(deps = []) ?(recirc = false) name hook actions =
  {
    Ir.s_name = name;
    s_hook = hook;
    s_tables = tables;
    s_registers = registers;
    s_actions = actions;
    s_deps = deps;
    s_recirc = recirc;
  }

(* ------------------------------------------------------------------ *)
(* BFC (paper 3.3): ingress = sample + flow table + dynamic queue
   assignment + threshold pause; egress = recirculated-header resume /
   size decrement / bitmap maintenance; ctrl = pause application. *)

let bfc ?(name = "bfc") ?(budget = Ir.tofino2_budget) ~ports ~queues_per_port ~classes
    (cfg : Dataplane.config) =
  let qpc = queues_per_port / classes in
  let th =
    match cfg.Dataplane.fixed_th with
    | Some b -> Ir.Th_fixed b
    | None -> Ir.Th_table { factor = cfg.Dataplane.th_factor }
  in
  let meta =
    {
      Ir.m_name = name;
      m_ports = ports;
      m_queues_per_port = queues_per_port;
      m_classes = classes;
      m_max_upstream_q = cfg.Dataplane.max_upstream_q;
      m_table_mult = cfg.Dataplane.table_mult;
      m_seed = cfg.Dataplane.seed;
      m_bitmap_period = cfg.Dataplane.bitmap_period;
    }
  in
  let stages =
    (if cfg.Dataplane.incast_label then
       [ stage "incast_label" Ir.H_classify [ Ir.Incast_relabel ] ]
     else [])
    @ [
        stage "sampling" Ir.H_classify
          [ Ir.Sample { rate = cfg.Dataplane.sampling; rand = Ir.Seeded } ];
        stage "flow_table" Ir.H_classify
          ~tables:[ flow_table ~ports ~queues_per_port ~mult:cfg.Dataplane.table_mult ]
          [ Ir.Flow_lookup ];
        stage "queue_assign" Ir.H_classify ~deps:[ "flow_table" ]
          ~registers:[ dqa_bitmap ~ports ~classes ~qpc ]
          [
            Ir.Assign_queue
              {
                policy = cfg.Dataplane.assignment;
                sticky_hrtt_mult = cfg.Dataplane.sticky_hrtt_mult;
                clock = Ir.Sim_clock;
                rand = Ir.Seeded;
              };
          ];
        stage "size_bump" Ir.H_classify
          ~deps:[ "flow_table"; "queue_assign" ]
          [ Ir.Bump_flow_size { clock = Ir.Sim_clock }; Ir.Collision_probe ];
        stage "occupancy" Ir.H_enqueue ~deps:[ "queue_assign" ]
          ~registers:
            [
              {
                Ir.r_name = "occupancy";
                r_entries = ports * queues_per_port;
                r_bits = 16;
                r_init = 0;
              };
            ]
          [ Ir.Mark_occupied ];
        stage "threshold_pause" Ir.H_enqueue
          ~tables:
            (match th with
            | Ir.Th_table _ -> [ th_table ~ports ~queues_per_port ]
            | Ir.Th_fixed _ -> [])
          ~registers:
            [
              {
                Ir.r_name = "pause_counters";
                r_entries = ports * cfg.Dataplane.max_upstream_q;
                r_bits = 16;
                r_init = 0;
              };
            ]
          [ Ir.Threshold_mark { th } ];
        stage "resume" Ir.H_dequeue ~deps:[ "threshold_pause" ] ~recirc:true
          [ Ir.Unmark_resume ];
        stage "size_dec" Ir.H_dequeue ~deps:[ "flow_table" ] ~recirc:true
          [ Ir.Dec_flow_size { clock = Ir.Sim_clock } ];
        stage "empty_bitmap" Ir.H_dequeue
          ~deps:[ "occupancy"; "queue_assign" ]
          ~recirc:true [ Ir.Mark_empty ];
        stage "stamp_upstream" Ir.H_dequeue [ Ir.Stamp_upstream_q ];
        stage "drop_undo" Ir.H_drop ~deps:[ "flow_table" ] ~recirc:true [ Ir.Drop_undo_size ];
        stage "pause_apply" Ir.H_ctrl
          ~registers:
            [
              {
                Ir.r_name = "pause_state";
                r_entries = ports * queues_per_port;
                r_bits = 1;
                r_init = 0;
              };
            ]
          [ Ir.Apply_pause ];
      ]
  in
  { Ir.p_meta = meta; p_budget = budget; p_stages = stages }

(* ------------------------------------------------------------------ *)
(* Credit dataplane: per-(egress, queue) byte balances with hop-by-hop
   grant-back; queue gating replaces pause counters. *)

let credit ?(name = "credit") ?(budget = Ir.tofino2_budget) ~ports ~queues_per_port
    (cfg : Credit_dataplane.config) =
  let meta =
    {
      Ir.m_name = name;
      m_ports = ports;
      m_queues_per_port = queues_per_port;
      m_classes = 1;
      m_max_upstream_q = cfg.Credit_dataplane.max_upstream_q;
      m_table_mult = cfg.Credit_dataplane.table_mult;
      m_seed = cfg.Credit_dataplane.seed;
      m_bitmap_period = None;
    }
  in
  let balances =
    {
      Ir.r_name = "balances";
      r_entries = ports * queues_per_port;
      r_bits = 32;
      r_init = cfg.Credit_dataplane.credit_bytes;
    }
  in
  let stages =
    [
      stage "flow_table" Ir.H_classify
        ~tables:[ flow_table ~ports ~queues_per_port ~mult:cfg.Credit_dataplane.table_mult ]
        ~registers:[ dqa_bitmap ~ports ~classes:1 ~qpc:queues_per_port ]
        [
          Ir.Credit_assign
            {
              sticky_hrtt_mult = cfg.Credit_dataplane.sticky_hrtt_mult;
              clock = Ir.Sim_clock;
            };
        ];
      stage "note_upstream" Ir.H_enqueue [ Ir.Note_upstream ];
      stage "occupancy" Ir.H_enqueue ~deps:[ "flow_table" ] [ Ir.Credit_mark_occupied ];
      stage "regate" Ir.H_enqueue ~registers:[ balances ] [ Ir.Credit_regate ];
      stage "grant_back" Ir.H_dequeue [ Ir.Grant_back ];
      stage "consume_gate" Ir.H_dequeue ~deps:[ "regate" ] ~recirc:true [ Ir.Credit_consume ];
      stage "size_dec" Ir.H_dequeue ~deps:[ "flow_table" ] ~recirc:true
        [ Ir.Credit_dec_size { clock = Ir.Sim_clock } ];
      stage "empty_bitmap" Ir.H_dequeue ~deps:[ "flow_table" ] ~recirc:true
        [ Ir.Credit_mark_empty ];
      stage "stamp_upstream" Ir.H_dequeue [ Ir.Stamp_upstream_q ];
      stage "replenish" Ir.H_ctrl ~deps:[ "regate" ] ~recirc:true [ Ir.Credit_replenish ];
    ]
  in
  { Ir.p_meta = meta; p_budget = budget; p_stages = stages }

(* ------------------------------------------------------------------ *)
(* Roster for `bfc_sim ir`: every committed feasible pipeline, at
   representative fabric dimensions (32-port switch, 32 queues/port). *)

let builtins () =
  let ports = 32 and queues_per_port = 32 in
  let d = Dataplane.default_config in
  [
    ("bfc", bfc ~name:"bfc" ~ports ~queues_per_port ~classes:1 d);
    ( "bfc-incast",
      bfc ~name:"bfc-incast" ~ports ~queues_per_port ~classes:1
        { d with Dataplane.incast_label = true } );
    ( "bfc-sampled",
      bfc ~name:"bfc-sampled" ~ports ~queues_per_port ~classes:1
        { d with Dataplane.sampling = 0.25 } );
    ( "bfc-fixed-th",
      bfc ~name:"bfc-fixed-th" ~ports ~queues_per_port ~classes:1
        { d with Dataplane.fixed_th = Some 45_000 } );
    ( "bfc-classes",
      bfc ~name:"bfc-classes" ~ports ~queues_per_port ~classes:2 d );
    ("credit", credit ~name:"credit" ~ports ~queues_per_port Credit_dataplane.default_config);
  ]

(* ------------------------------------------------------------------ *)
(* Deliberately-infeasible pipelines: each trips a specific DF/DT rule.
   Committed as golden fixtures (test/fixtures/ir) so the validator's
   rejection text is pinned. *)

let tiny_meta name =
  {
    Ir.m_name = name;
    m_ports = 4;
    m_queues_per_port = 8;
    m_classes = 1;
    m_max_upstream_q = 16;
    m_table_mult = 4;
    m_seed = 1;
    m_bitmap_period = None;
  }

let noop_stage name = stage name Ir.H_classify [ Ir.Flow_lookup ]

let infeasible () =
  [
    ( "too-many-stages",
      {
        Ir.p_meta = tiny_meta "too-many-stages";
        p_budget = Ir.tofino2_budget;
        p_stages = List.init 24 (fun i -> noop_stage (Printf.sprintf "s%02d" i));
      } );
    ( "oversized-table",
      {
        Ir.p_meta = tiny_meta "oversized-table";
        p_budget = Ir.tofino2_budget;
        p_stages =
          [
            stage "flow_table" Ir.H_classify
              ~tables:
                [
                  {
                    Ir.t_name = "flow_table";
                    t_keys = [ (Ir.F_egress, Ir.Exact); (Ir.F_fid_hash, Ir.Exact) ];
                    t_entries = 1 lsl 24;
                    t_entry_bits = flow_entry_bits;
                  };
                ]
              [ Ir.Flow_lookup ];
          ];
      } );
    ( "cross-stage-loop",
      {
        Ir.p_meta = tiny_meta "cross-stage-loop";
        p_budget = Ir.tofino2_budget;
        p_stages =
          [
            stage "a" Ir.H_classify ~deps:[ "b" ] [ Ir.Flow_lookup ];
            stage "b" Ir.H_classify ~deps:[ "a" ] [ Ir.Flow_lookup ];
          ];
      } );
    ( "per-packet-float",
      {
        Ir.p_meta = tiny_meta "per-packet-float";
        p_budget = Ir.tofino2_budget;
        p_stages =
          [
            stage "threshold" Ir.H_enqueue
              [ Ir.Float_compute "Th = HRTT * mu / N_active recomputed per packet" ];
          ];
      } );
    ( "ambient-random",
      {
        Ir.p_meta = tiny_meta "ambient-random";
        p_budget = Ir.tofino2_budget;
        p_stages =
          [ stage "sampling" Ir.H_classify [ Ir.Sample { rate = 0.5; rand = Ir.Ambient } ] ];
      } );
    ( "wall-clock-sticky",
      {
        Ir.p_meta = tiny_meta "wall-clock-sticky";
        p_budget = Ir.tofino2_budget;
        p_stages =
          [
            stage "queue_assign" Ir.H_classify
              [
                Ir.Assign_queue
                  {
                    policy = Bfc_core.Dqa.Dynamic;
                    sticky_hrtt_mult = 2.0;
                    clock = Ir.Wall_clock;
                    rand = Ir.Seeded;
                  };
              ];
          ];
      } );
    ( "debug-io",
      {
        Ir.p_meta = tiny_meta "debug-io";
        p_budget = Ir.tofino2_budget;
        p_stages =
          [ stage "logger" Ir.H_enqueue [ Ir.Debug_log "printf of queue depth per packet" ] ];
      } );
    ( "unbounded-work",
      {
        Ir.p_meta = tiny_meta "unbounded-work";
        p_budget = Ir.tofino2_budget;
        p_stages =
          [
            stage "scan" Ir.H_enqueue
              [
                Ir.Linked_scan "walk the flow list to find the heaviest flow";
                Ir.Unbounded_loop "retry until an empty queue is found";
              ];
          ];
      } );
  ]
