(** Merkle hash trees.

    Two uses in Guillotine: (1) attestation — the measured firmware,
    hypervisor image, and configuration form the leaves, and the root is
    the attested platform measurement; (2) the leaf-public-keys of the
    Merkle signature scheme ({!Signature}). *)

type tree

val build : string list -> tree
(** [build leaves] hashes each leaf and combines pairwise; an odd level
    duplicates its last node.  The leaf list must be non-empty.  Every
    leaf and node is hashed through one SHA-256 context and one scratch
    buffer that the call makes. *)

val root : tree -> string
(** 32-byte root digest. *)

val leaf_count : tree -> int

type proof = { index : int; path : (string * [ `Left | `Right ]) list }
(** Authentication path: sibling digests from leaf level to the root,
    each tagged with the side on which the sibling sits. *)

val prove : tree -> int -> proof
(** [prove t i] is the inclusion proof for leaf [i].
    Raises [Invalid_argument] if out of range. *)

val verify : ?ctx:Sha256.ctx -> root:string -> leaf:string -> proof -> bool
(** Checks that [leaf] is included under [root] at [proof.index].  A
    sibling that is not a 32-byte digest fails the proof, and so does an
    index that the path does not spell: step [k]'s sibling must sit on
    the [`Right] when bit [k] of the index is 0 and on the [`Left] when
    it is 1, and the index must lie in \[0, 2{^ length of the path}\).
    The hashes go through [ctx] (a fresh context by default), which is
    reset first and may be reused afterwards, as for
    {!Sha256.digest_into}. *)
