//! Error types for the crypto layer.

use core::fmt;

/// Errors produced by cryptographic operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CryptoError {
    /// Message exceeds the capacity of the key/padding scheme.
    MessageTooLong,
    /// Key is too small for the requested encoding.
    KeyTooSmall,
    /// A signature failed verification.
    InvalidSignature,
    /// Ciphertext failed structural or padding checks.
    DecryptionFailed,
    /// A point is not on the curve / not in the group.
    InvalidPoint,
    /// A scalar is out of range (zero or ≥ group order).
    InvalidScalar,
    /// Input length is not acceptable (e.g. non-block-multiple for CBC).
    InvalidLength,
    /// Record authentication failed: a wrong tag *or* malformed CBC
    /// padding — deliberately one kind (RFC 5246 §6.2.3.2).
    BadMac,
    /// The request was cancelled before the device saw it (e.g. staged
    /// in a submit queue when its worker shut down).
    Cancelled,
    /// The device never answered within the offload deadline (no poller
    /// retrieving responses, or a wedged engine).
    DeviceTimeout,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CryptoError::MessageTooLong => "message too long",
            CryptoError::KeyTooSmall => "key too small",
            CryptoError::InvalidSignature => "invalid signature",
            CryptoError::DecryptionFailed => "decryption failed",
            CryptoError::InvalidPoint => "invalid curve point",
            CryptoError::InvalidScalar => "invalid scalar",
            CryptoError::InvalidLength => "invalid input length",
            CryptoError::BadMac => "MAC verification failed",
            CryptoError::Cancelled => "request cancelled before submission",
            CryptoError::DeviceTimeout => "offload device timed out",
        };
        f.write_str(s)
    }
}

impl std::error::Error for CryptoError {}
