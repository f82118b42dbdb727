(** The shipped dataplanes as IR programs.

    Given a [Dataplane] / [Credit_dataplane] config and the switch
    dimensions, these emit the pipeline that {!Compile.attach} installs;
    recorded run fixtures (test/fixtures/ir/run-*.expected) pin the
    compiled output byte for byte. *)

(** BFC (§3.3): sample + flow table + dynamic queue assignment +
    threshold pause on ingress; recirculated-header resume / size
    decrement / bitmap maintenance on egress; pause application on the
    reacting side. *)
val bfc :
  ?name:string ->
  ?budget:Ir.budget ->
  ports:int ->
  queues_per_port:int ->
  classes:int ->
  Bfc_core.Dataplane.config ->
  Ir.pipeline

(** Credit dataplane: per-(egress, queue) byte balances with hop-by-hop
    grant-back; balance gating replaces pause counters. *)
val credit :
  ?name:string ->
  ?budget:Ir.budget ->
  ports:int ->
  queues_per_port:int ->
  Bfc_core.Credit_dataplane.config ->
  Ir.pipeline

(** Every committed feasible pipeline, at representative fabric
    dimensions (32-port switch, 32 queues/port). *)
val builtins : unit -> (string * Ir.pipeline) list

(** Deliberately-infeasible pipelines, each tripping a specific DF/DT
    rule; committed as golden fixtures pinning the validator's output. *)
val infeasible : unit -> (string * Ir.pipeline) list
