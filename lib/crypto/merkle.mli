(** Merkle hash trees.

    Two uses in Guillotine: (1) attestation — the measured firmware,
    hypervisor image, and configuration form the leaves, and the root is
    the attested platform measurement; (2) the leaf-public-keys of the
    Merkle signature scheme ({!Signature}). *)

type tree

val build : string list -> tree
(** [build leaves] hashes each leaf and combines pairwise; an odd level
    duplicates its last node.  The leaf list must be non-empty. *)

val root : tree -> string
(** 32-byte root digest. *)

val leaf_count : tree -> int

type proof = { index : int; path : (string * [ `Left | `Right ]) list }
(** Authentication path: sibling digests from leaf level to the root,
    each tagged with the side on which the sibling sits. *)

val prove : tree -> int -> proof
(** [prove t i] is the inclusion proof for leaf [i].
    Raises [Invalid_argument] if out of range. *)

val verify : root:string -> leaf:string -> proof -> bool
(** Checks that [leaf] is included under [root] at [proof.index]. *)
