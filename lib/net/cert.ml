module Crypto = Guillotine_crypto

type t = {
  subject : string;
  public_key : Crypto.Signature.public_key;
  issuer : string;
  guillotine_hypervisor : bool;
  signature : string;
}

(* Length-prefixed fields make the serialization injective. *)
let field s = Printf.sprintf "%d:%s" (String.length s) s

let to_be_signed c =
  String.concat ""
    [ field c.subject; field c.public_key; field c.issuer;
      field (if c.guillotine_hypervisor then "guillotine=1" else "guillotine=0") ]

let issue ~ca ~ca_name ~subject ~public_key ?(guillotine_hypervisor = false) () =
  let unsigned =
    {
      subject;
      public_key;
      issuer = ca_name;
      guillotine_hypervisor;
      signature = "";
    }
  in
  let sg = Crypto.Signature.sign ca (to_be_signed unsigned) in
  { unsigned with signature = Crypto.Signature.encode sg }

let verify ~ca_public_key c =
  match Crypto.Signature.decode c.signature with
  | None -> false
  | Some sg -> Crypto.Signature.verify ca_public_key ~msg:(to_be_signed c) sg

let self_signed ~signer ~name ~public_key () =
  issue ~ca:signer ~ca_name:name ~subject:name ~public_key ()

let fingerprint c = Crypto.Sha256.digest_hex (to_be_signed c)
