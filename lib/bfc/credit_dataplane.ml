type config = {
  assignment : Dqa.policy;
  table_mult : int;
  sticky_hrtt_mult : float;
  credit_bytes : int;
  max_upstream_q : int;
  seed : int;
}

let default_config =
  {
    assignment = Dqa.Dynamic;
    table_mult = 100;
    sticky_hrtt_mult = 2.0;
    credit_bytes = 25_000;
    max_upstream_q = 256;
    seed = 1;
  }

module Balance = struct
  type b = { bal : int array }

  let create ~queues ~initial = { bal = Array.make queues initial }

  let consume b ~queue ~bytes ~next =
    b.bal.(queue) <- b.bal.(queue) - bytes;
    next > 0 && b.bal.(queue) < next

  let replenish b ~queue ~bytes ~next =
    b.bal.(queue) <- b.bal.(queue) + bytes;
    next > 0 && b.bal.(queue) >= next

  let get b ~queue = b.bal.(queue)
end
