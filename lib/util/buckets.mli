(** Bucketing core for fixed-edge histograms ([Bfc_obs.Registry]'s
    overflow-bucket histograms): values resolve against a strictly
    ascending edge array with an O(log n) search. *)

(** Raise [Invalid_argument] unless [edges] is non-empty and strictly
    ascending. *)
val check : edges:float array -> unit

(** [upper_index ~edges v] is the smallest index [i] with [v < edges.(i)],
    or [Array.length edges] when [v >= edges.(n-1)] — i.e. the bucket index
    in an {e overflow-bucket} scheme with [n + 1] buckets ([0] = underflow,
    [n] = overflow). NaN resolves to bucket 1 (both comparisons are false,
    matching the historical behaviour of each call site). *)
val upper_index : edges:float array -> float -> int
