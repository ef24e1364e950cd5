module type S = sig
  type t

  val name : string
  val shares_clocks : bool
  val create : Config.t -> t
  val on_event : t -> index:int -> Event.t -> unit
  val warnings : t -> Warning.t list
  val witnesses : t -> Witness.t list
  val stats : t -> Stats.t
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed

let instantiate (module D : S) config = Packed ((module D), D.create config)
let packed_name (Packed ((module D), _)) = D.name

let packed_on_event (Packed ((module D), d)) ~index e =
  D.on_event d ~index e

(* The event-loop handler, destructured once instead of per event:
   drivers call this outside their loop so the hot path is a single
   closure invocation straight into the detector. *)
let packed_handler (Packed ((module D), d)) =
  let on_event = D.on_event in
  fun index e -> on_event d ~index e

let packed_warnings (Packed ((module D), d)) = D.warnings d
let packed_witnesses (Packed ((module D), d)) = D.witnesses d
let packed_stats (Packed ((module D), d)) = D.stats d
