module Brandes = Nue_netgraph.Brandes

let choose net ~dests =
  if Array.length dests = 0 then
    invalid_arg "Rootsel.choose: empty destination set";
  if Array.length dests = 1 then dests.(0)
  else Brandes.most_central ~members:dests net
