(** Alias for {!Network.Spec}, the network construction builder — see
    {!Network.of_spec} for field semantics. [Net.Spec.t] and
    [Net.Network.Spec.t] are the same type. *)
include module type of struct
  include Network.Spec
end
