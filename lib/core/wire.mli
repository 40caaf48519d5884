(** Packetization of bit strings under the message bound B.

    Protocols that ship whole segments or arrays split them into parts of at
    most [payload] bits each and reassemble on the receiving side. Part
    indices are carried explicitly, so parts may arrive in any order (and
    some may be missing after a mid-broadcast crash). *)

val split : b:int -> Dr_source.Bitarray.t -> (int * Dr_source.Bitarray.t) list
(** [(part_index, payload)] covering the array in order. Empty arrays yield
    a single empty part so that "I sent you my (empty) share" is still a
    message. *)

module Assembly : sig
  (** Reassembly buffer for one logical string. *)

  type t

  val feed :
    t Dr_engine.Int_table.t ->
    int ->
    len:int ->
    b:int ->
    part:int ->
    Dr_source.Bitarray.t ->
    Dr_source.Bitarray.t option
  (** [feed table key ~len ~b ~part payload] adds the part to the string
      assembled under [key], created with [~len ~b] on its first part.
      [Some s] when this part completes it; [None] otherwise, and for every
      part after completion. A duplicate part carrying the same payload as
      the first copy is ignored. Raises [Invalid_argument] on a part whose
      index or size is inconsistent with the declared length, or on a
      duplicate whose payload {e differs} from the copy already assembled
      (an equivocation — under crash faults a sender never legitimately
      re-sends different bits for the same part). *)
end

module Crc32 : sig
  (** Reflected CRC-32 (IEEE 802.3 / zlib). Every socket frame carries the
      checksum of its payload so that corruption — injected by {!Dr_net}'s
      fault layer or real — surfaces as a typed decode error, never as
      garbage handed to [Marshal]. *)

  val bytes : ?off:int -> ?len:int -> bytes -> int
  (** CRC of the byte range; defaults cover the whole buffer. Raises
      [Invalid_argument] on an out-of-bounds range. *)
end

module Frame : sig
  (** Pure header codec for the framed byte streams of the socket transport
      ([Dr_net]): a 4-byte magic (["DRF1"]), a 4-byte big-endian payload
      length and the payload's big-endian {!Crc32}. Kept here so the
      encoding is defined (and unit-testable) without any [Unix] dependency;
      [Dr_net.Frame] does the actual descriptor I/O. *)

  val header_len : int
  (** 12: magic, length, CRC. *)

  val max_payload : int
  (** (for tests) Sanity cap on the decoded length (64 MiB) — a corrupt or
      hostile header fails fast instead of provoking a giant allocation. *)

  type header_error =
    | Short_header
    | Bad_magic  (** stream out of sync; the connection cannot be trusted *)
    | Length_out_of_range of int
        (** decoded length outside [0, max_payload] — reject {e before}
            allocating *)

  val describe_header_error : header_error -> string

  val encode_header : len:int -> crc:int -> bytes
  (** Raises [Invalid_argument] on a length outside [0, max_payload] (a
      sender-side bug, unlike the typed receive errors). *)

  val decode_header : bytes -> (int * int, header_error) result
  (** [(len, crc)] from the first [header_len] bytes. *)
end
