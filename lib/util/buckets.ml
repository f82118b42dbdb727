(* The binary search behind Bfc_obs.Registry's overflow-bucket
   histograms, kept in bfc_util so any fixed-edge histogram resolves
   values the same way. *)

let check ~edges =
  let n = Array.length edges in
  if n = 0 then invalid_arg "Buckets.check: empty edges";
  for i = 1 to n - 1 do
    if not (edges.(i) > edges.(i - 1)) then
      invalid_arg "Buckets.check: edges must be strictly ascending"
  done

let upper_index ~edges v =
  let n = Array.length edges in
  if v < edges.(0) then 0
  else if v >= edges.(n - 1) then n
  else begin
    (* invariant: v >= edges.(!lo), v < edges.(!hi) *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if v >= edges.(mid) then lo := mid else hi := mid
    done;
    !hi
  end
