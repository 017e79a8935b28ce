module Verify = Nue_routing.Verify

type t = {
  max_hops : int;
  avg_hops : float;
  pairs : int;
  unreachable : int;
}

let of_stats (s : Verify.stats) =
  { max_hops = s.max_hops;
    avg_hops =
      (if s.pairs = 0 then 0.0
       else float_of_int s.hops /. float_of_int s.pairs);
    pairs = s.pairs;
    unreachable = s.unreachable }
