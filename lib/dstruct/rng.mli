(** Deterministic pseudo-random number generator (splitmix64).

    The simulator must be fully reproducible from a seed, including across
    independent sub-streams (one per process, one per link), so we use
    splitmix64 with an explicit [split] operation instead of the global
    [Stdlib.Random] state. *)

type t

(** [create seed] is a fresh generator. Equal seeds yield equal streams. *)
val create : int64 -> t

(** [split t] derives an independent generator from [t], advancing [t]. *)
val split : t -> t

(** [copy t] duplicates the exact current state of [t]. *)
val copy : t -> t

(** Next raw 64-bit value. *)
val bits64 : t -> int64

(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)
val int : t -> int -> int

(** [int_in t lo hi] is uniform in [lo, hi] inclusive. Requires [lo <= hi]. *)
val int_in : t -> int -> int -> int

(** [float t bound] is uniform in [0, bound). Requires [bound > 0.]. *)
val float : t -> float -> float

(** [bool t] is a fair coin flip. *)
val bool : t -> bool

(** [chance t p] is true with probability [p] (clamped to [0,1]). *)
val chance : t -> float -> bool

(** [exponential t ~mean] samples an exponential distribution. *)
val exponential : t -> mean:float -> float

(** [pick t xs] is a uniformly chosen element of the non-empty list [xs]. *)
val pick : t -> 'a list -> 'a

(** [shuffle t xs] is a uniform permutation of [xs]. *)
val shuffle : t -> 'a list -> 'a list

(** [shuffle_in_place t a] permutes [a] uniformly, with the draws of
    [shuffle] on the same elements. *)
val shuffle_in_place : t -> 'a array -> unit

(** [sample t k xs] is a uniform [k]-subset of [xs] (in shuffled order):
    the first [k] elements of [shuffle t xs]. Requires
    [k <= List.length xs]. *)
val sample : t -> int -> 'a list -> 'a list
