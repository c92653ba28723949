(** Struct-of-arrays backing for the per-node hot state of a cluster.

    Every {!Node} of one simulation owns a row of [susp] (its
    [susp_level] vector, [n] contiguous ints at offset [me * n]) and one
    slot of each extrema array, instead of a private [int array] plus
    mutable record fields. A whole cluster's suspicion state is then a few
    flat arrays: the gossip merge, the leader scan and the extrema reads
    walk sequential memory instead of chasing [n] heap-scattered records.

    One store serves one cluster — rows are indexed by process id, so two
    clusters must never share a store. {!Cluster.create} allocates one per
    cluster; a standalone {!Node.create_with_transport} allocates a private
    one unless the caller passes [?store]. *)

type t

(** [create ~n] is an all-zero store for an [n]-process cluster. *)
val create : n:int -> t

val n : t -> int

(** The [n] rows of [n] levels, process [p]'s row at [p * n]. Read it
    directly; write it only through {!raise_level}. *)
val susp : t -> int array

(** [raise_level t p k level] sets process [p]'s entry for [k] to
    [level], which must exceed the current entry (levels only rise). The
    max stays exact; the min goes stale only when the raised entry sat
    at it, the leader only when [k] is the cached leader. *)
val raise_level : t -> int -> int -> int -> unit

(** Max of process [p]'s row. *)
val max_level : t -> int -> int

(** Min of process [p]'s row, rescanned only when stale. *)
val min_level : t -> int -> int

(** Process [p]'s leader estimate (lines 19-21 of Figure 3): the
    lexicographic min of [(level, pid)] over its row, rescanned only when
    stale. *)
val leader : t -> int -> int
