(* Pipeline IR: validator rules, golden infeasible fixtures, and the
   compiled dataplane held byte-identical to recorded runs. *)

module Time = Bfc_engine.Time
module Sim = Bfc_engine.Sim
module Topology = Bfc_net.Topology
module Switch = Bfc_switch.Switch
module Packet = Bfc_net.Packet
module Dataplane = Bfc_core.Dataplane
module Ir = Bfc_ir.Ir
module Validate = Bfc_ir.Validate
module Bfc_pipeline = Bfc_ir.Bfc_pipeline
module Compile = Bfc_ir.Compile
module Scheme = Bfc_sim.Scheme
module Runner = Bfc_sim.Runner
module Exp_common = Bfc_sim.Exp_common

let fixture_dir =
  if Sys.file_exists "fixtures/ir" then "fixtures/ir" else "test/fixtures/ir"

(* ------------------------------------------------------------------ *)
(* Validator *)

let test_builtins_valid () =
  List.iter
    (fun (name, p) ->
      match Validate.check p with
      | [] -> ()
      | d :: _ -> Alcotest.failf "builtin %s not clean: %s" name (Validate.to_human d))
    (Bfc_pipeline.builtins ())

let render_diags p =
  String.concat "" (List.map (fun d -> Validate.to_human d ^ "\n") (Validate.check p))

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden_fixtures () =
  List.iter
    (fun (name, p) ->
      let path = Filename.concat fixture_dir (name ^ ".expected") in
      let expected = read_file path in
      Alcotest.(check string) name expected (render_diags p))
    (Bfc_pipeline.infeasible ())

let test_every_fixture_rejected () =
  List.iter
    (fun (name, p) ->
      Alcotest.(check bool) (name ^ " produces a diagnostic") true (Validate.check p <> []))
    (Bfc_pipeline.infeasible ())

let test_diag_format () =
  (* bfc-lint's exact file:line:col shape, so CI greps treat both alike *)
  let _, p = List.hd (Bfc_pipeline.infeasible ()) in
  match Validate.check p with
  | d :: _ ->
    let line = Validate.to_human d in
    Alcotest.(check bool)
      "has file:line:col prefix" true
      (String.length line > 0
      && String.contains line ':'
      && String.contains line '['
      && String.contains line ']')
  | [] -> Alcotest.fail "fixture produced no diagnostics"

let test_dump_and_report () =
  List.iter
    (fun (_, p) ->
      Alcotest.(check bool) "dump nonempty" true (String.length (Ir.dump p) > 0);
      Alcotest.(check bool) "report nonempty" true (String.length (Validate.report p) > 0))
    (Bfc_pipeline.builtins ())

let test_validator_catches_forward_dep () =
  let stage name hook deps =
    {
      Ir.s_name = name;
      s_hook = hook;
      s_tables = [];
      s_registers = [];
      s_actions = [ Ir.Flow_lookup ];
      s_deps = deps;
      s_recirc = false;
    }
  in
  let meta =
    {
      Ir.m_name = "forward-dep";
      m_ports = 2;
      m_queues_per_port = 4;
      m_classes = 1;
      m_max_upstream_q = 8;
      m_table_mult = 4;
      m_seed = 1;
      m_bitmap_period = None;
    }
  in
  (* ingress stage depending on egress-owned state: needs a packet loop *)
  let p =
    {
      Ir.p_meta = meta;
      p_budget = Ir.tofino2_budget;
      p_stages = [ stage "ingress" Ir.H_classify [ "egress" ]; stage "egress" Ir.H_dequeue [] ];
    }
  in
  Alcotest.(check bool) "forward cross-pass dep rejected" true
    (List.exists (fun d -> d.Validate.code = "DF003") (Validate.errors (Validate.check p)));
  (* same thing with recirculation declared on the egress side is fine *)
  let ok =
    {
      Ir.p_meta = meta;
      p_budget = Ir.tofino2_budget;
      p_stages =
        [
          stage "ingress" Ir.H_classify [];
          { (stage "egress" Ir.H_dequeue [ "ingress" ]) with Ir.s_recirc = true };
        ];
    }
  in
  Alcotest.(check bool) "recirc backward dep accepted" true (Validate.errors (Validate.check ok) = [])

(* ------------------------------------------------------------------ *)
(* Compiler rejection *)

let mk_star ~hosts =
  let sim = Sim.create () in
  let b = Topology.Builder.create sim in
  let sw = Topology.Builder.add_switch b ~name:"sw" in
  let hs = Array.init hosts (fun i -> Topology.Builder.add_host b ~name:(Printf.sprintf "h%d" i)) in
  Array.iter (fun h -> Topology.Builder.link b h sw ~gbps:100.0 ~prop:(Time.us 1.0)) hs;
  let t = Topology.Builder.finish b in
  (sim, t, sw)

let mk_switch ~queues_per_port =
  let sim, t, sw_id = mk_star ~hosts:4 in
  let cfg = { Switch.default_config with Switch.queues_per_port } in
  let route sw ~in_port:_ pkt =
    (Topology.candidates t ~node:(Switch.node_id sw) ~dst:pkt.Packet.dst).(0)
  in
  (sim, Switch.create ~sim ~node:(Topology.node t sw_id) ~ports:(Topology.ports t sw_id) ~config:cfg ~route ())

let test_compile_rejects_infeasible () =
  let _sim, sw = mk_switch ~queues_per_port:8 in
  List.iter
    (fun (name, p) ->
      match Compile.attach p sw with
      | _ -> Alcotest.failf "%s compiled despite being infeasible" name
      | exception Compile.Infeasible _ -> ())
    (Bfc_pipeline.infeasible ())

let test_compile_attaches_valid () =
  let _sim, sw = mk_switch ~queues_per_port:8 in
  let prog =
    Compile.attach_bfc sw { Dataplane.default_config with Dataplane.max_upstream_q = 16 }
  in
  Alcotest.(check bool) "switch recorded" true (Compile.switch prog == sw);
  let p = Compile.pipeline prog in
  Alcotest.(check int) "pipeline sized for switch" (Switch.n_ports sw) p.Ir.p_meta.Ir.m_ports;
  Alcotest.(check int) "no pauses yet" 0 (Compile.stats prog).Dataplane.pauses_sent

let test_compile_checks_dims () =
  let _sim, sw = mk_switch ~queues_per_port:8 in
  (* a valid pipeline built for different dimensions must be refused *)
  let p = Bfc_pipeline.bfc ~ports:2 ~queues_per_port:8 ~classes:1 Dataplane.default_config in
  match Compile.attach p sw with
  | _ -> Alcotest.fail "dimension mismatch accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Recorded runs: the compiled dataplane against test/fixtures/ir/run-*.expected,
   recorded from the retired hand-written BFC and credit hooks on the same
   smoke scenarios. A fixture holds injected/completed, buffer p99, the six
   summed dataplane stats (BFC runs) and the FCT rows, rendered as below. *)

let smoke scheme ~incast =
  let s = Exp_common.std Exp_common.Smoke scheme in
  Exp_common.run_std
    { s with Exp_common.sp_incast = (if incast then Some Exp_common.default_incast else None) }

let render r ~stats =
  let b = Buffer.create 4096 in
  let env = r.Exp_common.env in
  Printf.bprintf b "injected %d\ncompleted %d\nbuffer_p99 %.17g\n" (Runner.injected env)
    (Runner.completed env) (Exp_common.buffer_p99 r);
  if stats then begin
    let sts = Array.map Compile.stats (Runner.dataplanes env) in
    let sum f = Array.fold_left (fun a st -> a + f st) 0 sts in
    Printf.bprintf b
      "stats pauses_sent=%d resumes_sent=%d packets_counted=%d queue_collisions=%d \
       assignments=%d random_assignments=%d\n"
      (sum (fun st -> st.Dataplane.pauses_sent))
      (sum (fun st -> st.Dataplane.resumes_sent))
      (sum (fun st -> st.Dataplane.packets_counted))
      (sum (fun st -> st.Dataplane.queue_collisions))
      (sum (fun st -> st.Dataplane.assignments))
      (sum (fun st -> st.Dataplane.random_assignments))
  end;
  List.iter (fun row -> Printf.bprintf b "fct %s\n" (String.concat "\t" row)) (Exp_common.fct_rows r);
  Buffer.contents b

let check_recorded name scheme ~incast ~stats =
  let r = smoke scheme ~incast in
  let env = r.Exp_common.env in
  Alcotest.(check int)
    (name ^ ": one compiled program per switch")
    (Array.length (Runner.switches env))
    (Array.length (Runner.dataplanes env));
  let expected = read_file (Filename.concat fixture_dir ("run-" ^ name ^ ".expected")) in
  Alcotest.(check string) (name ^ ": matches the recorded run") expected (render r ~stats)

let test_recorded_bfc () = check_recorded "bfc" Scheme.bfc ~incast:false ~stats:true

let test_recorded_bfc_sampled_incast () =
  check_recorded "bfc-sampled-incast"
    (Scheme.Bfc
       { Scheme.bfc_default with Scheme.sampling = 0.25; Scheme.incast_label = true })
    ~incast:true ~stats:true

let test_recorded_credit () =
  check_recorded "credit" Scheme.bfc_credit ~incast:false ~stats:false

let suite =
  [
    Alcotest.test_case "builtin pipelines validate clean" `Quick test_builtins_valid;
    Alcotest.test_case "golden infeasible fixtures" `Quick test_golden_fixtures;
    Alcotest.test_case "every fixture rejected" `Quick test_every_fixture_rejected;
    Alcotest.test_case "diagnostic format" `Quick test_diag_format;
    Alcotest.test_case "dump and report render" `Quick test_dump_and_report;
    Alcotest.test_case "forward/recirc dependency rules" `Quick test_validator_catches_forward_dep;
    Alcotest.test_case "compile rejects infeasible" `Quick test_compile_rejects_infeasible;
    Alcotest.test_case "compile attaches valid pipeline" `Quick test_compile_attaches_valid;
    Alcotest.test_case "compile checks dimensions" `Quick test_compile_checks_dims;
    Alcotest.test_case "differential: bfc" `Slow test_recorded_bfc;
    Alcotest.test_case "differential: bfc sampled+incast" `Slow test_recorded_bfc_sampled_incast;
    Alcotest.test_case "differential: credit" `Slow test_recorded_credit;
  ]
