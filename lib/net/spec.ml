(* Library-level alias so callers write [Net.Spec.default |> ...] next to
   [Net.Network.of_spec]; the builder itself lives in {!Network.Spec}
   (construction is Network's business). *)
include Network.Spec
