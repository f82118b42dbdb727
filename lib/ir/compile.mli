(** Compiler from validated IR pipelines to the zero-alloc hot path — the
    simulator's BFC and credit dataplane.

    [attach] validates, resolves every action to a flat op array per
    switch hook, and installs integer-only executors over flat dataplane
    state. Raises {!Infeasible} when the validator reports errors — an
    invalid pipeline can never reach the hot path. *)

(** The validator errors that rejected the pipeline. *)
exception Infeasible of Validate.diag list

type t

(** [attach p sw] — validate [p], lower it, and install its hooks on
    [sw]. The pipeline's [meta] dimensions must match the switch.
    @raise Infeasible if validation reports errors.
    @raise Invalid_argument on a switch/pipeline dimension mismatch. *)
val attach : Ir.pipeline -> Bfc_switch.Switch.t -> t

(** Build the BFC pipeline for this switch's dimensions and attach it. *)
val attach_bfc : Bfc_switch.Switch.t -> Bfc_core.Dataplane.config -> t

(** Build the credit pipeline for this switch's dimensions and attach it. *)
val attach_credit : Bfc_switch.Switch.t -> Bfc_core.Credit_dataplane.config -> t

val switch : t -> Bfc_switch.Switch.t

val pipeline : t -> Ir.pipeline

(** Whether this is a credit pipeline (no pause counters in use). *)
val is_credit : t -> bool

(** Pause, resume, threshold-mark and queue-assignment counters (BFC
    pipelines). *)
val stats : t -> Bfc_core.Dataplane.stats

(** Pause counters (for invariant checks). *)
val pause_counters : t -> Bfc_core.Pause_counter.t

val flow_table : t -> Bfc_core.Flow_table.t

(** Current pause threshold for an egress (bytes). *)
val threshold : t -> egress:int -> int

(** [allow_backpressure t f] installs the deadlock-prevention match-action
    filter (App. B): packets for which [f ~in_port ~egress] is false skip
    pause accounting. *)
val allow_backpressure : t -> (in_port:int -> egress:int -> bool) -> unit

(** Wipe flow table, pause counters, DQA bitmaps and occupancy
    diagnostics; call together with {!Bfc_switch.Switch.reboot} so the
    program's state matches the flushed switch. *)
val reset : t -> unit
