(** Configuration and counters of the BFC dataplane program (§3.3), plus
    the reacting side shared with host NICs.

    The program itself is the compiled pipeline IR ([Bfc_ir.Compile]):
    [Bfc_ir.Bfc_pipeline.bfc] turns a {!config} into a validated
    match-action pipeline that follows the paper's pseudocode:

    - {b Enqueue} (ingress pipeline): look up ⟨egress, hash(FID)⟩ in the
      flow table; (re)assign a physical queue if the entry has no packets in
      the switch and the sticky threshold (2 HRTT) has expired; bump
      [size]; if the assigned queue's occupancy exceeds Th = HRTT·µ/N_active,
      mark the packet and increment pauseCounter⟨ingress, upstreamQ⟩,
      emitting a Pause on the 0→1 edge.
    - {b Dequeue} (modelled recirculation): decrement [size]; if the packet
      was marked, decrement the pause counter, emitting a Resume on the
      1→0 edge; stamp our local queue id into the packet's [upstreamQ];
      update the empty-queue bitmap.
    - {b Reacting side}: Pause/Resume/Pause-bitmap control packets arriving
      on port [i] pause/resume queues of egress [i] (the reverse direction
      of the same link) — {!apply_ctrl}.

    The last queue of every port is reserved for end-to-end control traffic
    (ACKs, NACKs, grants), standing in for the high-priority control queue
    the paper reserves; data queues are [0, queues_per_port - 1). *)

type config = {
  assignment : Dqa.policy;
  table_mult : int; (** flow-table slots per port = mult x queues (paper: 100) *)
  sticky_hrtt_mult : float; (** sticky threshold in HRTTs (paper: 2) *)
  th_factor : float; (** scales Th; 1.0 = paper *)
  fixed_th : int option; (** fixed threshold in bytes (Fig. 7 sweeps) *)
  sampling : float; (** fraction of packets bookkept (App. A.8); 1.0 = all *)
  incast_label : bool; (** App. A.7: incast-labelled flows share queue 0 *)
  bitmap_period : Bfc_engine.Time.t option; (** periodic idempotent refresh *)
  max_upstream_q : int; (** pause-counter width (>= peers' queue counts) *)
  seed : int;
}

val default_config : config

(** Statistics for tests and benches. *)
type stats = {
  mutable pauses_sent : int;
  mutable resumes_sent : int;
  mutable packets_counted : int; (** enqueues that exceeded Th *)
  mutable queue_collisions : int;
      (** data enqueues whose flow shared its queue with another active
          flow-table entry (diagnostic for Fig. 27) *)
  mutable assignments : int; (** fresh queue assignments *)
  mutable random_assignments : int; (** assignments with no empty queue *)
}

(** The reacting side, used by switches and host NICs alike: given a
    control packet and the local queue-pause setter, apply it. *)
val apply_ctrl :
  set_paused:(queue:int -> bool -> unit) -> n_queues:int -> Bfc_net.Packet.t -> unit
